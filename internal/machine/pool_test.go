package machine

import (
	"runtime/debug"
	"testing"

	"repro/internal/isa"
)

// kernelOutcome is everything a kernel run leaves behind that the guest
// or the host counters can observe.
type kernelOutcome struct {
	res   RunResult
	regs  [isa.NumRegs]uint32
	eip   uint32
	cyc   uint64
	stats Stats
}

// runKernel loads kernelProgram into m and runs it to HLT.
func runKernel(t *testing.T, m *Machine) kernelOutcome {
	t.Helper()
	p := kernelProgram()
	if err := m.LoadBytes(0x2000, p.Bytes()); err != nil {
		t.Fatal(err)
	}
	m.SetEIP(0x2000 + 4*4)
	m.SetReg(isa.SP, 0x8000)
	out := kernelOutcome{res: m.Run(1 << 20)}
	if out.res.Reason != StopHalt {
		t.Fatalf("kernel stopped with %v", out.res.Reason)
	}
	for r := range out.regs {
		out.regs[r] = m.Reg(isa.Reg(r))
	}
	out.eip, out.cyc, out.stats = m.EIP(), m.Cycles(), m.Stats()
	return out
}

// drainCachePools empties the engine-cache pools reachable from this
// goroutine, checking the pool contract on the way: every pooled table
// is fully zeroed, and every pooled predecode table has the default
// size.
func drainCachePools(t *testing.T) {
	t.Helper()
	for v := icachePool.p.Get(); v != nil; v = icachePool.p.Get() {
		ic := *(v.(*[]icEntry))
		if len(ic) != 1<<icacheBits {
			t.Fatalf("pooled predecode table has %d entries, want %d", len(ic), 1<<icacheBits)
		}
		requireZero(t, "predecode", ic)
	}
	for v := sbcachePool.p.Get(); v != nil; v = sbcachePool.p.Get() {
		requireZero(t, "compiled-block", *(v.(*[]sbEntry)))
	}
	for v := sbPagesPool.p.Get(); v != nil; v = sbPagesPool.p.Get() {
		requireZero(t, "code-granule", *(v.(*[]sbPage)))
	}
}

func requireZero[T comparable](t *testing.T, what string, table []T) {
	t.Helper()
	var zero T
	for i, e := range table {
		if e != zero {
			t.Fatalf("pooled %s entry %d not cleared: %+v", what, i, e)
		}
	}
}

// TestEngineCachePool: a machine that takes a released machine's
// predecode, compiled-block and code-granule tables runs the kernel to the same
// registers, cycles and host counters as one that allocated fresh
// tables — the pooled tables carry nothing over.
func TestEngineCachePool(t *testing.T) {
	// A collection would empty the pools mid-test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainCachePools(t)

	fresh := New(64 << 10)
	want := runKernel(t, fresh)
	if want.stats.SBCompiles == 0 || want.stats.DecodeMisses == 0 {
		t.Fatalf("kernel did not exercise both caches: %+v", want.stats)
	}
	for attempt := 0; ; attempt++ {
		ic, sb, pg := &fresh.icache[0], &fresh.sbcache[0], &fresh.sbPages[0]
		fresh.Release()
		m := New(64 << 10)
		got := runKernel(t, m)
		if got != want {
			t.Fatalf("recycled machine diverged:\n got %+v\nwant %+v", got, want)
		}
		if &m.icache[0] == ic && &m.sbcache[0] == sb && &m.sbPages[0] == pg {
			break // every table was recycled
		}
		if attempt == 10 {
			t.Fatal("released tables never reached the next machine")
		}
		fresh = m
	}
}

// TestEngineCachePoolSkipsGrownICache: a predecode table widened by
// GrowICacheForText is never pooled, while the machine's other tables
// still are.
func TestEngineCachePoolSkipsGrownICache(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainCachePools(t)

	m := New(64 << 10)
	m.GrowICacheForText(8 << 10)
	runKernel(t, m)
	if len(m.icache) <= 1<<icacheBits {
		t.Fatalf("predecode table has %d entries; growth did not apply", len(m.icache))
	}
	m.Release()
	if m.icache != nil || m.sbcache != nil || m.sbPages != nil {
		t.Fatal("Release kept the engine caches")
	}
	drainCachePools(t) // fails on a grown table in the pool
}
