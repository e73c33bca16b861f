// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark drives the same workload the paper
// describes and reports the headline quantity as a custom metric in
// *cycles* (the platform's deterministic clock), so `go test -bench=.`
// reproduces the evaluation end to end:
//
//	BenchmarkTable1UseCase        Figure 2 + Table 1 (cruise control)
//	BenchmarkTable2ContextSave    Table 2
//	BenchmarkTable3ContextRestore Table 3
//	BenchmarkTable4TaskCreation   Table 4
//	BenchmarkTable5Relocation     Table 5
//	BenchmarkTable6EAMPUConfig    Table 6
//	BenchmarkTable7Measurement    Table 7
//	BenchmarkTable8Memory         Table 8
//	BenchmarkIPCRoundTrip         §6 "Secure IPC"
//	BenchmarkSecureLoad           Table 1 load on a strict-verify platform
//	BenchmarkAblation*            design-choice ablations (DESIGN.md)
//
// ns/op measures host simulation speed and is not a paper quantity; the
// cycles metrics are.
package repro_test

import (
	"testing"

	"repro/internal/benchlab"
	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/telf"
)

func BenchmarkTable1UseCase(b *testing.B) {
	var last benchlab.UseCaseResult
	var insns uint64
	for i := 0; i < b.N; i++ {
		r, err := benchlab.RunUseCase(false)
		if err != nil {
			b.Fatal(err)
		}
		last = r
		insns += r.Instructions
	}
	b.ReportMetric(last.RateT0[1]*1000, "t0-Hz-while-loading")
	b.ReportMetric(last.RateT1[1]*1000, "t1-Hz-while-loading")
	b.ReportMetric(last.RateT2[2]*1000, "t2-Hz-after-loading")
	b.ReportMetric(float64(last.LoadWorkCycles), "load-cycles")
	b.ReportMetric(last.LoadMillis(), "load-ms")
	// Host simulation throughput: guest instructions retired per host
	// second, in millions. Not a paper quantity — it tracks the
	// interpreter fast path (see DESIGN.md, "Simulator fast path").
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insns)/s/1e6, "host-mips")
	}
}

// BenchmarkSecureLoad is one op of the repository benchmark's
// secure-load workload: the Table 1 cruise-control scenario on a fresh
// platform with the strict verification gate and bounds admission on —
// t0 and t1 loaded synchronously, 64 ticks, t2 loaded asynchronously
// while both keep running, 64 more ticks. Its ns/op and B/op are the
// host cost of TyTAN's load path (admission, copy, relocation, RTM
// SHA-1, EA-MPU setup) and of the context switches around it.
func BenchmarkSecureLoad(b *testing.B) {
	const period = 31_200 // the use case's activation period
	const window = 64 * core.DefaultTickPeriod
	t0 := benchlab.UseCaseTaskImage(1, period)
	t0.Name = "t0"
	t1 := benchlab.UseCaseTaskImage(2, period)
	t1.Name = "t1"
	t2 := benchlab.UseCaseT2Image(3, period)
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		p, err := core.NewPlatform(core.Options{StrictVerify: true, BoundsAdmission: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, im := range []*telf.Image{t0, t1} {
			if _, _, err := p.LoadTaskSync(im, core.Secure, 5); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Run(window); err != nil {
			b.Fatal(err)
		}
		req := p.LoadTaskAsync(t2, core.Secure, 4)
		for start := p.Cycles(); !req.Done() && p.Cycles() < start+100*window; {
			if err := p.Run(core.DefaultTickPeriod); err != nil {
				b.Fatal(err)
			}
		}
		if !req.Done() || req.Err() != nil {
			b.Fatalf("t2 load: done=%v err=%v", req.Done(), req.Err())
		}
		if err := p.Run(window); err != nil {
			b.Fatal(err)
		}
		cycles = p.Cycles()
		p.Close()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkTable2ContextSave(b *testing.B) {
	var last benchlab.ContextSwitchResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureContextSwitch()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.SaveTyTAN), "save-cycles")
	b.ReportMetric(float64(last.SaveBaseline), "baseline-save-cycles")
	b.ReportMetric(float64(last.SaveTyTAN-last.SaveBaseline), "overhead-cycles")
}

func BenchmarkTable3ContextRestore(b *testing.B) {
	var last benchlab.ContextSwitchResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureContextSwitch()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.RestoreTyTAN), "restore-cycles")
	b.ReportMetric(float64(last.RestoreBaseline), "baseline-restore-cycles")
	b.ReportMetric(float64(last.RestoreTyTAN-last.RestoreBaseline), "overhead-cycles")
}

func BenchmarkTable4TaskCreation(b *testing.B) {
	var last benchlab.CreationResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureCreation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Secure.Total()), "secure-cycles")
	b.ReportMetric(float64(last.Normal.Total()), "normal-cycles")
	b.ReportMetric(float64(last.Baseline.Total()), "baseline-cycles")
	b.ReportMetric(float64(last.Secure.Measure), "rtm-cycles")
	b.ReportMetric(float64(last.Secure.Reloc), "reloc-cycles")
	b.ReportMetric(float64(last.Secure.Protect), "eampu-cycles")
}

func BenchmarkTable5Relocation(b *testing.B) {
	var last []benchlab.RelocationPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureRelocation()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Avg), "avg-cycles-n"+itoa(pt.N))
	}
}

func BenchmarkTable6EAMPUConfig(b *testing.B) {
	var last []benchlab.EAMPUPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureEAMPUConfig()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Cost.Total()), "cycles-slot"+itoa(pt.Position))
	}
}

func BenchmarkTable7Measurement(b *testing.B) {
	var blocks, addrs []benchlab.MeasurementPoint
	for i := 0; i < b.N; i++ {
		bb, aa, err := benchlab.MeasureMeasurement()
		if err != nil {
			b.Fatal(err)
		}
		blocks, addrs = bb, aa
	}
	for _, pt := range blocks {
		b.ReportMetric(float64(pt.Cost), "cycles-blocks"+itoa(pt.Blocks))
	}
	for _, pt := range addrs {
		b.ReportMetric(float64(pt.Cost), "cycles-addrs"+itoa(pt.Addrs))
	}
}

func BenchmarkTable8Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchlab.Table8Memory()
	}
	b.ReportMetric(float64(firmware.BaselineBytes()), "freertos-bytes")
	b.ReportMetric(float64(firmware.TyTANBytes()), "tytan-bytes")
	b.ReportMetric(firmware.OverheadPercent(), "overhead-pct")
}

func BenchmarkIPCRoundTrip(b *testing.B) {
	var last benchlab.IPCResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureIPC()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Proxy), "proxy-cycles")
	b.ReportMetric(float64(last.Entry), "entry-cycles")
	b.ReportMetric(float64(last.Overall), "overall-cycles")
}

func BenchmarkAblationAtomicMeasurement(b *testing.B) {
	var atomic benchlab.UseCaseResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.RunUseCase(true)
		if err != nil {
			b.Fatal(err)
		}
		atomic = r
	}
	b.ReportMetric(float64(atomic.MaxGapDuringLoad), "worst-gap-cycles")
	b.ReportMetric(float64(atomic.Missed), "missed-deadlines")
}

func BenchmarkAblationHardwareContextSave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationHardwareContextSave(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStaticMPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationStaticMPU(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIdentityWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationIdentityWidth(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkSupplementalCreationScaling(b *testing.B) {
	var last []benchlab.ScalingPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureCreationScaling()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Secure), "secure-cycles-"+itoa(pt.Bytes>>10)+"KiB")
	}
}

func BenchmarkInterruptLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.TableInterruptLatency(); err != nil {
			b.Fatal(err)
		}
	}
}
