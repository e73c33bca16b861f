package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads by name. BENCHMARK.json lists
// the ones it gates; engine-kernel is not among them (README.md).
var workloads = map[string]workload{
	"engine-kernel": {setupKernel, 0.95},
	"secure-load":   {setupSecureLoad, 0.95},
	"fleet-steady":  {setupFleet("fleet-steady", fleetSteady), 0.5},
	"fleet-churn":   {setupFleet("fleet-churn", fleetChurn), 0.5},
}

type workload struct {
	// setup sets the workload up from the seed. Set-up is everything
	// before timing starts: input generation, the engine cross-check
	// and a warm-up op.
	setup func(seed uint64) (session, error)
	// rateQuantile is the quantile of step throughput reported as
	// ops_per_s. On a shared host, neighbours slow the program in
	// episodes from a millisecond to a minute, by up to 1.8x, and never
	// speed it up. A step of one op is shorter than most quiet
	// stretches, so its 95th percentile reads the program's own speed
	// where the median would read how busy the neighbours were. A fleet
	// step, one fleet.Run of about 0.3 s, is longer than most: its fast
	// tail is the rare quiet run and scatters, so it takes the median
	// (README.md, Noise).
	rateQuantile float64
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A session is a set-up workload, ready for timed steps.
type session interface {
	// step runs the next unit of work — one op, or on the fleet
	// workloads one fleet.Run of many sessions — checks its outputs
	// and adds the outcome to t. sp is nil unless tracing.
	step(t *tally, sp *spans)
}

// A prober takes span measurements after the traced phase that the
// workload's own steps cannot take.
type prober interface {
	probe(sp *spans) error
}

// tally accumulates the outcome of a measured phase.
type tally struct {
	attempted, failed int
	done              int           // ops that completed (fleet: sessions decided)
	lat               []int64       // host ns per completed op
	busy              time.Duration // host time inside the program's calls
	insns             uint64        // guest instructions retired
	cycles, cycleOps  uint64        // simulated cycles summed over cycleOps ops
	rates             []float64     // ops per second of each step
	p99s              []int64       // p99 of each window of tailWindow latencies
	windowStart       int           // index in lat of the open window
	counts            map[string]float64
	firstFailure      string
}

func newTally() *tally { return &tally{counts: make(map[string]float64)} }

// complete records one op that returned after d.
func (t *tally) complete(d time.Duration, insns, cycles uint64) {
	t.done++
	t.busy += d
	t.lat = append(t.lat, int64(d))
	t.insns += insns
	t.cycles += cycles
	t.cycleOps++
}

// fail records n failed ops and keeps the first reason for the log.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// spans accumulates host time around the benchmark's own calls into a
// layer. A nil *spans records nothing, so untraced steps pay no clock
// reads for it.
type spans struct {
	total map[string]time.Duration
	calls map[string]int
}

func newSpans() *spans {
	return &spans{total: make(map[string]time.Duration), calls: make(map[string]int)}
}

func (s *spans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) end(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.total[name] += time.Since(t0)
	s.calls[name]++
}

// measure steps the session for at least the given time and until
// minOps ops have completed (giving up on the floor once twice that
// many have been attempted, so a failing program still ends).
func measure(s session, seconds float64, minOps int, sp *spans) *tally {
	t := newTally()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) || (t.done < minOps && t.attempted < 2*minOps) {
		done, busy := t.done, t.busy
		s.step(t, sp)
		if t.busy > busy {
			t.rates = append(t.rates, float64(t.done-done)/(t.busy-busy).Seconds())
		}
		if w := t.lat[t.windowStart:]; len(w) >= tailWindow {
			t.p99s = append(t.p99s, percentile(sorted(w), 0.99))
			t.windowStart = len(t.lat)
		}
	}
	return t
}

// tailWindow is the least number of latencies a p99 is taken over, so
// that ten samples lie beyond it. The reported p99 is the median over
// consecutive windows, so that a load episode on the host moves a few
// windows rather than the figure.
const tailWindow = 1000

// p50 is the median latency over the whole phase.
func (t *tally) p50() int64 { return percentile(sorted(t.lat), 0.50) }

// p99 is the median window p99, or the p99 of every sample when the
// phase held less than one window.
func (t *tally) p99() int64 {
	if len(t.p99s) == 0 {
		return percentile(sorted(t.lat), 0.99)
	}
	return percentile(sorted(t.p99s), 0.50)
}

// sorted returns a sorted copy.
func sorted(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// opsPerS is the q quantile (nearest rank) of step throughput.
func (t *tally) opsPerS(q float64) float64 {
	if len(t.rates) == 0 {
		return 0
	}
	s := append([]float64(nil), t.rates...)
	sort.Float64s(s)
	return s[int(math.Ceil(float64(len(s))*q))-1]
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, idleCPU, cpu  float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), idleCPU: v(3), cpu: v(4)}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is what one invocation prints.
type result struct {
	stamp        stamp
	attempted    int
	failed       int
	rateQuantile float64 // the workload's, for ops_per_s
	// metrics are the benchmark's declared metrics for this mode, in
	// print order; shown are printed with their units but kept off the
	// JSON line (see README.md).
	names   []string
	metrics map[string]metric
	shown   []string
	notes   []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) show(name, unit string, v float64) {
	r.shown = append(r.shown, fmt.Sprintf("%s %g %s", name, v, unit))
}

func (r *result) add(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.firstFailure != "" {
		r.notes = append(r.notes, "first failure: "+t.firstFailure)
	}
}

// maxSetups caps set-up repetitions for cheap set-ups.
const maxSetups = 51

// execute sets the workload up repeatedly, keeps the last session, and
// measures it.
func execute(cfg config) (*result, error) {
	w := workloads[cfg.workload]
	res := &result{stamp: newStamp(cfg), rateQuantile: w.rateQuantile, metrics: make(map[string]metric)}

	// Set-up runs at least cfg.setups times and, while it is cheap,
	// until a second has gone into it: the first set-ups in a process
	// run on cold caches and fresh heap pages, and enough repetitions
	// keep them away from the median.
	var s session
	var setupS []float64
	var spent time.Duration
	for len(setupS) < cfg.setups || (spent < time.Second && len(setupS) < maxSetups) {
		t0 := time.Now()
		var err error
		if s, err = w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	runtime.GC()

	if !cfg.trace {
		before := readRuntime()
		t := measure(s, cfg.seconds, cfg.minOps, nil)
		after := readRuntime()
		res.add(t)
		res.endToEnd(t, before, after, median(setupS))
		return res, nil
	}

	// The traced run: half the time untraced, as the baseline for the
	// tracing overhead and for the runtime counters, then half with a
	// CPU profile, a heap profile and spans on.
	half := cfg.seconds / 2
	before := readRuntime()
	plain := measure(s, half, cfg.minOps, nil)
	after := readRuntime()
	res.add(plain)

	runtime.GC()
	heapBefore, err := heapProfile()
	if err != nil {
		return nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	sp := newSpans()
	traced := measure(s, half, cfg.minOps, sp)
	pprof.StopCPUProfile()
	runtime.GC()
	heapAfter, err := heapProfile()
	if err != nil {
		return nil, err
	}
	res.add(traced)
	if p, ok := s.(prober); ok {
		if err := p.probe(sp); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	cpuLayers, err := layerTotals(cpu.Bytes(), "cpu")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	allocBefore, err := layerTotals(heapBefore, "alloc_space")
	if err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	allocAfter, err := layerTotals(heapAfter, "alloc_space")
	if err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	res.perLayer(plain, traced, before, after, sp, cpuLayers, allocBefore, allocAfter)
	return res, nil
}

func heapProfile() ([]byte, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return b.Bytes(), nil
}

// endToEnd sets the end-to-end metrics of an untraced phase.
func (r *result) endToEnd(t *tally, before, after runtimeSample, setupS float64) {
	r.set("ops_per_s", "1/s", t.opsPerS(r.rateQuantile))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("setup_s", "s", setupS)
	r.set("alloc_kb_per_op", "KB", (after.allocBytes-before.allocBytes)/1024/float64(t.done))

	// Printed but not gated (README.md says why for each): latency
	// quantiles move with load elsewhere on a shared host by more than
	// any bound that could hold, the fleet runs retire guest
	// instructions out of the benchmark's sight, simulated cycles are
	// exact, and failures are the JSON line's failed count. The traced
	// run records them all.
	r.show("op_p50_ms", "ms", float64(t.p50())/1e6)
	r.show("op_p99_ms", "ms", float64(t.p99())/1e6)
	r.show("op_samples", "count", float64(len(t.lat)))
	r.show("op_p99_windows", "count", float64(len(t.p99s)))
	if t.insns > 0 {
		r.show("sim_mips", "MIPS", simMIPS(t))
	}
	r.show("sim_cycles_per_op", "cycles", ratio(float64(t.cycles), float64(t.cycleOps)))
	r.show("error_rate", "ratio", ratio(float64(t.failed), float64(t.attempted)))
}

func simMIPS(t *tally) float64 { return float64(t.insns) / t.busy.Seconds() / 1e6 }

// perLayer sets the per-layer metrics of a traced run.
func (r *result) perLayer(plain, traced *tally, before, after runtimeSample, sp *spans,
	cpu, allocBefore, allocAfter map[string]int64) {
	ops := float64(traced.done)
	for _, l := range layers {
		r.set(l+".self_us_per_op", "us", float64(cpu[l])/1e3/ops)
		r.set(l+".alloc_kb_per_op", "KB", float64(allocAfter[l]-allocBefore[l])/1024/ops)
	}

	perOp := func(name string) float64 { return float64(sp.total[name].Microseconds()) / ops }
	perCall := func(name string) float64 {
		return ratio(float64(sp.total[name].Nanoseconds()), float64(sp.calls[name]))
	}
	r.set("core.boot_us", "us", perCall("core.boot")/1e3)
	r.set("core.load_sync_us", "us", perOp("core.load_sync"))
	r.set("core.load_async_us", "us", perOp("core.load_async"))
	r.set("core.run_us", "us", perOp("core.run"))
	r.set("fleet.run_s", "s", perCall("fleet.run")/1e9)

	c := traced.counts
	for _, name := range perOpCounts {
		r.set(name, "count", c[name]/ops)
	}
	r.set("machine.sb_hit_ratio", "ratio", ratio(c["machine.sb_hits"], c["machine.sb_hits"]+c["machine.sb_fallbacks"]))
	r.set("machine.sb_hit_ratio_base", "count", (c["machine.sb_hits"]+c["machine.sb_fallbacks"])/ops)
	for _, ph := range loadPhases {
		r.set("loader."+ph+"_cycles", "cycles", ratio(c["loader."+ph], c["loader.loads"]))
	}
	lookups := c["fleet.cache_hits"] + c["fleet.cache_misses"]
	r.set("fleet.cache_hit_ratio", "ratio", ratio(c["fleet.cache_hits"], lookups))
	r.set("fleet.cache_hit_ratio_base", "count", lookups/ops)
	r.set("fleet.acceptor_max_over_mean", "ratio", ratio(c["fleet.acceptor_max_over_mean"], c["fleet.runs"]))

	busyCPU := (after.cpu - after.idleCPU) - (before.cpu - before.idleCPU)
	r.set("runtime.gc_cpu_share", "ratio", ratio(after.gcCPU-before.gcCPU, busyCPU))
	r.set("runtime.gc_cycles_per_op", "count", (after.gcCycles-before.gcCycles)/float64(plain.done))

	r.set("op_p50_ms", "ms", float64(plain.p50())/1e6)
	r.set("op_p99_ms", "ms", float64(plain.p99())/1e6)
	r.set("sim_mips", "MIPS", simMIPS(plain))
	r.set("sim_cycles_per_op", "cycles", ratio(float64(plain.cycles), float64(plain.cycleOps)))
	r.set("error_rate", "ratio", ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted)))
	r.set("tracing_overhead_pct", "%", (plain.opsPerS(r.rateQuantile)/traced.opsPerS(r.rateQuantile)-1)*100)
}

// perOpCounts are the per-layer counters a step adds to tally.counts,
// reported per op.
var perOpCounts = []string{
	"machine.insns", "machine.decode_misses", "machine.gen_bumps",
	"machine.sb_compiles", "machine.sb_hits", "machine.sb_bails",
	"machine.sb_fallbacks", "machine.sb_invalidations", "eampu.span_fills",
	"trusted.measured",
	"fleet.attested", "fleet.rejected", "fleet.refused", "fleet.errored",
}

// loadPhases name the LoadBreakdown fields, in pipeline order.
var loadPhases = []string{"verify", "alloc", "copy", "reloc", "install", "protect", "measure", "schedule"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is nearest-rank over a sorted slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * q))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// write prints the stamp, every metric with its unit, and the JSON
// result as the last line.
func (r *result) write(w io.Writer) error {
	stampJSON, err := json.Marshal(r.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", stampJSON)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %s %g %s\n", n, m.Value, m.Unit)
	}
	for _, line := range r.shown {
		fmt.Fprintf(w, "metric %s (not gated)\n", line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
