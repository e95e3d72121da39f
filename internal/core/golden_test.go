package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// retrieveGoldenHashes pins what a consumer gets back from a session that
// walks a tolerance ladder: per rung, the certified EstErrors, every
// variable's reconstruction, RetrievedBytes and Iterations. The repository
// benchmark's oracle compares two runs of one binary, so it cannot see a
// decode, recompose or estimator change that drifts consistently; these
// constants can. They were computed at commit 8a71781 (the parent of the
// allocation-free commit and the column Pow kernel) by copying this file
// into a clone of that commit and running
//
//	go test ./internal/core -run TestRetrieveGoldenHashes
//
// with this map emptied, then reading the hashes out of the failures;
// Workers 1 and 2 hashed identically there. Re-record only in a PR that
// changes what a retrieval returns on purpose, and say why in CHANGES.md.
var retrieveGoldenHashes = map[string]string{
	"GE/PMGARD-HB":   "b9bedbfe3cd57ebc355ad2a347436dda4935496c92944e110e650af08e7f53db",
	"GE/PMGARD":      "cb681c6b9db6d1f8ab4f566b3823689af1bcd949fd2e931cbc69732b7716d833",
	"GE/PSZ3":        "07623859b9ab92bd47833aeb11f22a30ab1cc28e9497634fdf30544422d52455",
	"GE/PSZ3-delta":  "8cecfca5f1f3ef0490293e78fe9fb96279f295408664678dbeb4bc8bd633b712",
	"S3D/PMGARD-HB":  "7dd98436d64761ff7df7218fda330ee6a3791e0cfa58b240cc3600455960fb80",
	"S3D/PMGARD":     "a2308d2c50cfa27ab29ab4446cf379d0902ba90d24c384dc29b77acf1ad80176",
	"S3D/PSZ3":       "d1a5a5147cdce3ef9823d3a4a2aa13062a510d47bf822657176fbb0104598fab",
	"S3D/PSZ3-delta": "e0d8133e3dd2221bc559c8d03ae13a110941edf651bf2e8727dd9de8a77c4e6f",
	"NYX/PMGARD-HB":  "f161fd530c2c2ae56ecf23ae87038624e3786fe4d31b8ba7a27ca9718e63b5fb",
	"NYX/PMGARD":     "03713d8cc46c1e9d9a5a32e5ba81c8731eb48bfc30a6679f1a36a95bccb72f94",
	"NYX/PSZ3":       "9c3eeddf6707bd9491977b865b9e5ecd0e64ae2d5ddf56e18ca3ca15d85d2b01",
	"NYX/PSZ3-delta": "9dcb1fbb363f3dce8ab60410a8fe5c12bf948d298e08868b973ded4ccec72e43",
}

// retrieveLadder is the relative tolerance of each rung, applied to every
// QoI's value range.
var retrieveLadder = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7}

// hashLadder runs the ladder on one session and hashes every rung's result.
func hashLadder(t *testing.T, ds *datagen.Dataset, vars []*Variable, workers int) string {
	t.Helper()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	rt, err := NewRetriever(vars, Config{Workers: workers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	put := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	for _, rel := range retrieveLadder {
		tols := make([]float64, len(ds.QoIs))
		for k := range tols {
			tols[k] = rel * ranges[k]
		}
		res, err := rt.Retrieve(context.Background(), Request{QoIs: ds.QoIs, Tolerances: tols})
		if err != nil && !errors.Is(err, ErrExhausted) {
			t.Fatalf("rung %g: %v", rel, err)
		}
		buf = buf[:0]
		put(uint64(res.Iterations))
		put(uint64(res.RetrievedBytes))
		for _, e := range res.EstErrors {
			put(math.Float64bits(e))
		}
		for _, d := range res.Data {
			put(uint64(len(d)))
			for _, x := range d {
				put(math.Float64bits(x))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRetrieveGoldenHashes(t *testing.T) {
	datasets := []*datagen.Dataset{
		datagen.GE("GE", 200, 320, 42),
		datagen.S3D(24, 32, 20, 1),
		datagen.NYX(33, 17, 9, 2),
	}
	methods := []progressive.Method{progressive.PMGARDHB, progressive.PMGARD, progressive.PSZ3, progressive.PSZ3Delta}
	for _, ds := range datasets {
		for _, m := range methods {
			name := fmt.Sprintf("%s/%s", ds.Name, m)
			vars := refactorDataset(t, ds, m)
			for _, workers := range []int{1, 2} {
				got := hashLadder(t, ds, vars, workers)
				if want, ok := retrieveGoldenHashes[name]; !ok || got != want {
					t.Errorf("%s workers=%d: retrieval hash %s, want %s", name, workers, got, want)
				}
			}
		}
	}
}
