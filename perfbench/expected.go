package main

import (
	_ "embed"
	"encoding/json"
)

// expected.json records the outputs a correct program produces: each
// simulator workload's statistics digest at the pinned seed, and the
// model checker's state and edge counts (its search is exhaustive, so
// they do not depend on the seed). A change that only makes the program
// faster leaves all of them unchanged.
//
//go:embed expected.json
var expectedJSON []byte

type expectations struct {
	PinnedSeed uint64            `json:"pinned_seed"`
	Digests    map[string]string `json:"digests"`
	Mcheck     map[string][2]int `json:"mcheck"`
}

var expected = func() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return e
}()

// checkDigest compares a simulator workload's digest with the recorded
// one when the run uses the pinned seed.
func checkDigest(b *bench, digest string) {
	if b.seed != expected.PinnedSeed {
		return
	}
	want := expected.Digests[b.workload]
	b.check(digest == want, "digest %s at pinned seed %d, recorded %q", digest, b.seed, want)
}
