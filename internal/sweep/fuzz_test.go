package sweep

import (
	"path"
	"testing"
)

// FuzzParseFilters fuzzes the -only/-skip pattern parser. No input may
// panic, and an accepted pattern names no axis or one the axes table lists,
// with a value that is a valid glob against any token, so keep and
// drops never meet a matching error they would ignore.
func FuzzParseFilters(f *testing.F) {
	for _, p := range []string{
		"", "resnet18", "model=resnet*", "workload=video-[0-3]", "rule=",
		"hetero=1,0.5", "faults=mtbf:*;loss=*", "kv=9?", "=x", "a=b=c",
		"modle=resnet18", "model=[bad", "model=\\", "[", "Model=x", "model =x",
	} {
		f.Add(p, "resnet18")
	}
	f.Fuzz(func(t *testing.T, pattern, token string) {
		flt, err := parseFilters([]string{pattern})
		if err != nil {
			return
		}
		for axis, pats := range flt {
			if axis != bareAxis && (axis < 0 || axis >= len(axes)) {
				t.Fatalf("parseFilters(%q) accepted unknown axis %d", pattern, axis)
			}
			for _, p := range pats {
				if _, err := path.Match(p, token); err != nil {
					t.Fatalf("parseFilters(%q) accepted glob %q, which fails on %q: %v", pattern, p, token, err)
				}
			}
		}
	})
}
