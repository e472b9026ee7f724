package core

import (
	"runtime"
	"testing"

	"repro/internal/synth"
)

// BenchmarkBuildShardedIndex times the two-segment build of the
// benchmark harness's corpus (synth.DefaultConfig over 900 days, about
// 49k shots) and reports the garbage collections each build triggers.
//
//	go test -run '^$' -bench BuildShardedIndex -benchmem -benchtime 5x ./internal/core/
func BenchmarkBuildShardedIndex(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Days = 900
	cfg.NumSearchTopics = 100
	arch, err := synth.Generate(cfg, 2008)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildShardedIndex(arch.Collection, nil, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}
