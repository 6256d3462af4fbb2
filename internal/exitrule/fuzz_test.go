package exitrule

import "testing"

// FuzzByName checks ByName on arbitrary rule names: it never panics,
// and a non-empty name it accepts is the rule's own canonical Name, so
// a scenario's identity names the rule that actually runs. The seeds
// are the names the package tests use plus spellings a numeric parse
// reads as a valid rule: trailing text, leading zeros, a sign, a
// fraction and trailing space.
func FuzzByName(f *testing.F) {
	for _, name := range []string{
		"", "entropy", "windowed-3", "patience-2", "softmax", "windowed-0", "patience--1",
		"windowed-3x", "windowed-03", "windowed-+3", "patience-2.5", "patience-2 ",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		rule, err := ByName(name)
		if err != nil || name == "" {
			return
		}
		if got := rule.Name(); got != name {
			t.Fatalf("ByName(%q) accepted a rule named %q", name, got)
		}
	})
}
