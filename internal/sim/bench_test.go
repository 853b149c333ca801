package sim

import "testing"

// BenchmarkEventChurn measures the schedule→fire cycle that dominates the
// engine's hot path. With the event free list this runs allocation-free
// once the pool is primed.
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var fire func()
	fire = func() {
		n++
		if n < b.N {
			e.Schedule(10, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(10, fire)
	e.Run()
}

// BenchmarkTimerStartStop measures the cancel path (schedule then Stop),
// the pattern every RPC timeout takes.
func BenchmarkTimerStartStop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(100, fn)
		t.Stop()
	}
}

// BenchmarkProcSwitch measures a process's park/resume round trip: one
// op is one Proc.Yield, which switches from the process to the domain
// loop and back again (two switches; ns/switch reports half an op). Every
// 1024 yields the process sleeps 1ns, so the instant's burst — which every
// same-instant Yield appends to — stays bounded.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if i%1024 == 1023 {
				p.Sleep(1)
			} else {
				p.Yield()
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}
