package progqoi

// integration_test.go exercises cross-cutting paths: concurrent retrieval
// sessions over one archive, the storage round trip feeding the retrieval
// framework, corrupted-archive end-to-end behaviour, and cross-method
// result agreement.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
	"progqoi/internal/storage"
)

func TestConcurrentSessionsOverOneArchive(t *testing.T) {
	ds := datagen.GE("GE-conc", 8, 200, 5)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)
	const sessions = 8
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	bytes := make([]int64, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess, err := arch.Open()
			if err != nil {
				errs[s] = err
				return
			}
			rel := math.Pow(10, -float64(2+s%4))
			res, err := sess.Do(context.Background(), Request{Targets: []Target{
				{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]}}})
			if err != nil {
				errs[s] = err
				return
			}
			actual := ActualQoIErrors([]QoI{vtot}, ds.Fields, res.Data)
			if actual[0] > res.EstErrors[0] {
				errs[s] = errors.New("guarantee violated under concurrency")
			}
			bytes[s] = res.RetrievedBytes
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	// Sessions with identical tolerances must retrieve identical bytes
	// (determinism under concurrency).
	for s := 4; s < sessions; s++ {
		if bytes[s] != bytes[s-4] {
			t.Fatalf("sessions %d and %d with same tolerance retrieved %d vs %d bytes",
				s, s-4, bytes[s], bytes[s-4])
		}
	}
}

func TestStorageToRetrievalPipeline(t *testing.T) {
	// Producer: refactor, archive to a directory store. Consumer: reopen
	// from the store, retrieve with QoI certification.
	ds := datagen.S3D(8, 10, 12, 9)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PSZ3Delta, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArchive(context.Background(), st, "s3d", vars); err != nil {
		t.Fatal(err)
	}

	got, err := storage.ReadArchive(context.Background(), st, "s3d")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRetriever(got, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranges := core.QoIRanges(ds.QoIs, ds.Fields)
	tols := make([]float64, len(ds.QoIs))
	rels := make([]float64, len(ds.QoIs))
	for k := range tols {
		rels[k] = 1e-6
		tols[k] = rels[k] * ranges[k]
	}
	res, err := rt.Retrieve(context.Background(), core.Request{QoIs: ds.QoIs, Tolerances: tols, InitRel: rels})
	if err != nil {
		t.Fatal(err)
	}
	actual := core.ActualQoIErrors(ds.QoIs, ds.Fields, res.Data)
	for k, q := range ds.QoIs {
		if actual[k] > tols[k] {
			t.Errorf("%s: actual %g > tolerance %g after storage round trip", q.Name, actual[k], tols[k])
		}
	}
}

func TestCorruptedFragmentFailsLoudly(t *testing.T) {
	// A fragment corrupted at rest must produce an error during retrieval,
	// never a silently wrong reconstruction.
	ds := datagen.GE("GE-corrupt", 4, 150, 13)
	for _, m := range []Method{PSZ3, PSZ3Delta, PMGARDHB} {
		vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
			Progressive: progressive.Options{Method: m, LosslessTail: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt every fragment of the first variable: whichever one the
		// method's schedule touches first must fail to decode. (PSZ3 skips
		// straight to the snapshot matching the request, so corrupting only
		// fragment 0 would go unnoticed by design.)
		for _, frag := range vars[0].Ref.Fragments {
			if len(frag) > 8 {
				frag[len(frag)/2] ^= 0xff
				frag[len(frag)/2+1] ^= 0xff
			}
		}
		rt, err := core.NewRetriever(vars, core.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		vtot := []qoi.QoI{ds.QoIs[0]}
		_, err = rt.Retrieve(context.Background(), core.Request{
			QoIs:       vtot,
			Tolerances: []float64{1e-6},
			InitRel:    []float64{1e-6},
		})
		if err == nil || errors.Is(err, core.ErrExhausted) {
			// Either a decode error or — if the corruption landed in a
			// region the Huffman stream tolerates — a checksum-level error.
			// Silently succeeding would only be acceptable if the data were
			// still within bounds, which deflate/huffman corruption makes
			// essentially impossible; treat success as a failure.
			t.Errorf("%v: corrupted fragment did not fail (err=%v)", m, err)
		}
		_ = encoding.ErrCorrupt
	}
}

func TestMethodsAgreeOnReconstruction(t *testing.T) {
	// All four methods, same tolerance: reconstructions differ, but each
	// must be within 2×tolerance of every other (triangle inequality via
	// the shared ground truth).
	ds := datagen.GE("GE-agree", 4, 128, 17)
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields[:3])
	tol := 1e-5 * ranges[0]
	var recons [][][]float64
	for _, m := range []Method{PSZ3, PSZ3Delta, PMGARD, PMGARDHB} {
		arch, err := Refactor(ds.FieldNames[:3], ds.Fields[:3], ds.Dims, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		sess, _ := arch.Open()
		res, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: tol}}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		recons = append(recons, res.Data)
	}
	for a := 0; a < len(recons); a++ {
		for b := a + 1; b < len(recons); b++ {
			ea := ActualQoIErrors([]QoI{vtot}, recons[a], recons[b])
			if ea[0] > 2*tol {
				t.Errorf("methods %d and %d disagree by %g > 2·tol", a, b, ea[0])
			}
		}
	}
}

func TestSessionIsolation(t *testing.T) {
	// Two sessions over the same archive must not share retrieval state.
	ds := datagen.GE("GE-iso", 4, 100, 19)
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)
	s1, _ := arch.Open()
	s2, _ := arch.Open()
	if _, err := s1.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-8, Relative: true, Range: ranges[0]}}}); err != nil {
		t.Fatal(err)
	}
	if s2.RetrievedBytes() != 0 {
		t.Fatal("second session saw first session's bytes")
	}
	res2, err := s2.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-2, Relative: true, Range: ranges[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RetrievedBytes >= s1.RetrievedBytes() {
		t.Fatal("loose session should retrieve less than tight session")
	}
}
