package progqoi_test

// tenant_bench_test.go measures the per-request cost of the PR 9
// multi-tenant front door: bearer authentication (hash-then-compare
// over every configured tenant), the token bucket, the per-tenant
// in-flight ledger, and the two-class admission queue — everything
// ServeHTTP adds in front of the handler. The benchmark drives a
// cheap route directly (no network), so the number is dominated by the
// admission path itself. No repository-benchmark workload configures
// tenants, so this is the only timing of the front door.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func BenchmarkTenantAdmission(b *testing.B) {
	ds := datagen.GE("GE-adm", 2, 64, 3)
	vars, err := core.RefactorVariables(ds.FieldNames, ds.Fields, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), st, "ge", vars); err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(context.Background(), st, server.Options{
		MaxInflight: 64,
		Tenants: []server.Tenant{
			{Name: "dash", Token: "bench-dash-token", Class: server.ClassInteractive},
			{Name: "etl", Token: "bench-etl-token-9", Class: server.ClassBulk},
			{Name: "ml", Token: "bench-ml-token-77", Class: server.ClassBulk},
			{Name: "qa", Token: "bench-qa-token-13", Class: server.ClassInteractive},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	tokens := []string{"bench-dash-token", "bench-etl-token-9", "bench-ml-token-77", "bench-qa-token-13"}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
			req.Header.Set("Authorization", "Bearer "+tokens[i%len(tokens)])
			i++
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
}
