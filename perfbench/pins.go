package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"hash"
)

// pinsJSON holds the SHA-256 digests of the outputs the benchmark checks:
// "any_seed" entries hold at every seed (the square does not depend on
// it), "default_seed" entries at seed 1.
//
//go:embed pins.json
var pinsJSON []byte

var pins = func() (p struct {
	AnySeed     map[string]string `json:"any_seed"`
	DefaultSeed map[string]string `json:"default_seed"`
}) {
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error()) // embedded at build time
	}
	return p
}()

// digest hashes a sequence of byte strings, each length-prefixed so that
// boundaries count.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	for i, l := 0, uint64(len(b)); i < 8; i, l = i+1, l>>8 {
		n[i] = byte(l)
	}
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkPin records a first-pass digest and compares it with pins.json:
// entries under "any_seed" hold at every seed, entries under
// "default_seed" at seed 1.
func checkPin(out *outcome, seed int64, key, digest string) {
	if out.digests == nil {
		out.digests = map[string]string{}
	}
	out.digests[key] = digest
	want, ok := pins.AnySeed[key]
	if !ok && seed == defaultSeed {
		want, ok = pins.DefaultSeed[key]
	}
	if ok && want != digest {
		out.fail("%s: output digest %s, pinned %s", key, digest, want)
	}
}
