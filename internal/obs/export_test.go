package obs

// The tests in package obs_test run whole scenarios through core, which
// imports obs, so they reach these helpers through exported names.
var (
	CheckJSONL   = checkJSONL
	SampleEvents = sampleEvents
)
