package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkClimatelint times one full analyzer pass — all analyzers over
// every package in the module — against packages loaded once up front.
// Loading (parse + type-check) is excluded so the number tracks the
// CFG/dataflow engine and analyzer walks themselves; timing
// `go run ./cmd/climatelint ./...` gives the end-to-end wall-clock
// including the load. The pass doubles as a clean-module assertion.
func BenchmarkClimatelint(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(l.ModuleDir, "..."))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
			b.Fatalf("module not lint-clean: %d finding(s)", len(diags))
		}
	}
}
