package rtos

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// The scheduler: priority-based pre-emptive with round-robin within a
// priority level, driven by the timer tick, as required by the paper's
// real-time feature list (§4): multi-tasking, priority-based
// pre-emptive scheduling, bounded primitives, real-time clock, alarms
// and time-outs, queuing, and delaying of processes.

// enqueue appends t to its priority's ready list.
func (k *Kernel) enqueue(t *TCB) {
	t.State = StateReady
	k.ready[t.Priority] = append(k.ready[t.Priority], t)
}

// dequeueHighest pops the first task of the highest non-empty priority.
func (k *Kernel) dequeueHighest() *TCB {
	for p := NumPriorities - 1; p >= 0; p-- {
		q := k.ready[p]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		copy(q, q[1:])
		k.ready[p] = q[:len(q)-1]
		return t
	}
	return nil
}

// removeFromReady removes t from the ready lists if present.
func (k *Kernel) removeFromReady(t *TCB) {
	q := k.ready[t.Priority]
	for i, x := range q {
		if x == t {
			k.ready[t.Priority] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// wakeDelayed makes delayed tasks whose deadline passed ready.
func (k *Kernel) wakeDelayed() {
	now := k.M.Cycles()
	for _, t := range k.taskOrder {
		if t.State == StateBlocked && t.wakeAt != 0 && t.wakeAt <= now {
			t.wakeAt = 0
			t.EntryInfo = EntryResumed
			k.enqueue(t)
		}
	}
}

// nextEventCycle returns the next cycle at which something is scheduled
// to happen: the timer tick, a delayed task's wake, or a software
// timer's deadline. Returns 0 if nothing is pending.
func (k *Kernel) nextEventCycle() uint64 {
	var next uint64
	consider := func(c uint64) {
		if c != 0 && (next == 0 || c < next) {
			next = c
		}
	}
	consider(k.Timer.NextFire())
	for _, t := range k.taskOrder {
		if t.State == StateBlocked && t.wakeAt != 0 {
			consider(t.wakeAt)
		}
	}
	for _, st := range k.timers {
		if st.active {
			consider(st.deadline)
		}
	}
	return next
}

// idleAdvance advances simulated time to the next event (bounded by
// limit). It reports whether there was anything to advance to.
func (k *Kernel) idleAdvance(limit uint64) bool {
	next := k.nextEventCycle()
	if next == 0 {
		return false // nothing will ever happen again
	}
	if next > limit {
		next = limit
	}
	if now := k.M.Cycles(); next > now {
		k.M.Charge(next - now)
		k.idleCycles += next - now
	}
	return true
}

// tick is the timer interrupt handler body: bookkeeping plus expiry of
// software timers. Delay wakeups are handled in the run loop so that
// they also work with the tick disabled.
func (k *Kernel) tick() {
	k.ticks++
	k.M.Charge(machine.CostTick)
	k.expireTimers()
	k.checkDeadlines()
}

// checkStackBounds kills a task whose banked context frame has sunk
// below its stack reservation — FreeRTOS-style stack overflow checking.
// Returning true means the task was killed.
func (k *Kernel) checkStackBounds(t *TCB) bool {
	if !t.IsISA() || t.Placement.Image == nil {
		return false
	}
	if t.SavedSP >= t.Placement.StackBase() {
		return false
	}
	k.removeTaskWith(t, ExitReason{
		Cause:     ExitStackOverflow,
		FaultAddr: t.SavedSP,
		Detail:    fmt.Sprintf("sp %#x below stack base %#x", t.SavedSP, t.Placement.StackBase()),
	})
	return true
}

// serviceInterrupt delivers the highest-priority pending interrupt:
// hardware entry, context save via the configured InterruptPath, and
// the handler body.
func (k *Kernel) serviceInterrupt() error {
	line, ok := k.M.PendingIRQ()
	if !ok {
		return nil
	}
	cur := k.current
	if cur != nil && cur.IsISA() && k.ctxLive {
		// Hardware pushes EIP/EFLAGS onto the interrupted task's stack,
		// then the interrupt path banks the rest. A task whose frame
		// cannot be pushed or banked forged its SP: it dies, the
		// interrupt is still serviced.
		if _, err := k.M.EnterInterrupt(line); err != nil {
			k.frameFault(cur, err)
			k.M.SetInterruptsEnabled(false)
			cur = nil
		} else if err := k.IntPath.Save(k, cur); err != nil {
			k.frameFault(cur, err)
			cur = nil
		} else {
			k.ctxLive = false
			if k.checkStackBounds(cur) {
				cur = nil
				k.current = nil
			}
		}
	} else {
		// Idle or a native service task: no ISA context to bank, but
		// the exception entry still happens.
		k.M.Charge(machine.CostHWException)
		k.M.SetInterruptsEnabled(false)
	}
	if cur != nil && cur.State == StateRunning {
		cur.EntryInfo = EntryResumed
		if cur.IsISA() || cur.serviceRunnable() {
			k.enqueue(cur)
		} else {
			cur.State = StateBlocked
		}
		k.preempted++
	}
	k.current = nil

	raised := k.M.RaisedAt(line)
	k.M.AckIRQ(line)
	if line == machine.IRQTimer {
		k.tick()
	}
	var lat uint64
	if now := k.M.Cycles(); now >= raised {
		lat = now - raised
		k.irqLatencySum += lat
		k.irqLatencyN++
		if lat > k.irqLatencyMax {
			k.irqLatencyMax = lat
		}
	}
	if k.Obs != nil {
		kind := trace.KindIRQ
		if line == machine.IRQTimer {
			kind = trace.KindTick
		}
		k.emit(kind, "", trace.Num("line", uint64(line)), trace.Num("latency", lat))
	}
	k.M.SetInterruptsEnabled(true)
	return nil
}

// serviceRunnable reports whether a service task has work queued.
func (t *TCB) serviceRunnable() bool {
	type wakeable interface{ HasWork() bool }
	if w, ok := t.Service.(wakeable); ok {
		return w.HasWork()
	}
	return true
}

// RunUntil drives the kernel until the machine's cycle counter reaches
// limit, all tasks are dead, or (with no tick running) nothing can make
// progress. It is the kernel's "main" — the simulated CPU alternates
// between task execution and kernel paths exactly as the hardware
// would.
func (k *Kernel) RunUntil(limit uint64) error {
	for k.M.Cycles() < limit {
		if k.M.InterruptDeliverable() {
			if err := k.serviceInterrupt(); err != nil {
				return err
			}
			continue
		}
		k.wakeDelayed()
		k.expireTimers()
		if k.current == nil {
			t := k.dequeueHighest()
			if t == nil {
				if !k.idleAdvance(limit) {
					return nil // nothing will ever happen again
				}
				continue
			}
			k.M.Charge(machine.CostSchedulerPick)
			k.current = t
		}
		if err := k.dispatch(limit); err != nil {
			return err
		}
	}
	return nil
}

// Quiesce parks the current task (saving its context) so that the
// machine state is self-consistent between RunUntil calls.
func (k *Kernel) Quiesce() {
	if k.current == nil {
		return
	}
	t := k.current
	if t.State == StateRunning {
		if err := k.parkCurrentContext(); err == nil {
			t.EntryInfo = EntryResumed
		}
		if t.State != StateDead {
			k.enqueue(t)
		}
	}
	k.current = nil
}

// dispatch runs the current task until it blocks, exits, is pre-empted
// or the limit is reached.
func (k *Kernel) dispatch(limit uint64) error {
	t := k.current
	t.State = StateRunning
	t.Activations++
	k.switches++
	k.noteDispatch(t)
	if k.Obs != nil {
		k.emit(trace.KindTaskSwitch, t.Name,
			trace.Num("id", uint64(t.ID)), trace.Num("prio", uint64(t.Priority)))
	}
	now := k.M.Cycles()
	if now >= limit {
		return nil
	}
	budget := limit - now

	if !t.IsISA() {
		used, status := t.Service.Step(k, t, budget)
		k.M.Charge(used)
		t.CPUCycles += used
		switch status {
		case NativeReady:
			if k.current == t { // may have been pre-empted/retargeted
				k.current = nil
				k.enqueue(t)
			}
		case NativeIdle:
			if k.current == t {
				k.current = nil
				t.State = StateBlocked
				// A service that wants a periodic wakeup (the trusted
				// supervisor's watchdog) publishes the next cycle it needs
				// to run at; the scheduler treats it like a delayed task.
				if w, ok := t.Service.(interface{ NextWake() uint64 }); ok {
					t.wakeAt = w.NextWake()
				}
			}
		case NativeDone:
			k.current = nil
			k.removeTaskWith(t, ExitReason{Cause: ExitDone})
		}
		return nil
	}

	// ISA task: restore its context (if not already live) and run.
	if !k.ctxLive {
		if err := k.IntPath.Restore(k, t); err != nil {
			k.removeTaskWith(t, ExitReason{Cause: ExitRestoreFault, Detail: err.Error()})
			return nil
		}
		k.ctxLive = true
	}
	start := k.M.Cycles()
	res := k.M.Run(budget)
	used := k.M.Cycles() - start
	t.CPUCycles += used
	t.burstAcc += used

	switch res.Reason {
	case machine.StopIRQ:
		// Leave it current: serviceInterrupt saves it. The burst is not
		// over — an interrupt is not a trap boundary; the accumulator
		// keeps running across the pre-emption.
		return nil
	case machine.StopBudget:
		// Hit the simulation limit mid-run; park it consistently.
		k.Quiesce()
		return nil
	case machine.StopSVC:
		k.closeBurst(t, "svc")
		k.M.Charge(machine.CostSyscallEntry)
		if err := k.handleSyscall(t, res.SVC); err != nil {
			return err
		}
		// A syscall may have readied a higher-priority task (IPC
		// delivery, resume): pre-empt at the syscall boundary, exactly
		// like the tick path would.
		return k.preemptIfNeeded()
	case machine.StopHalt:
		k.closeBurst(t, "hlt")
		k.removeTaskWith(t, ExitReason{Cause: ExitHalt, PC: k.M.EIP()})
		return nil
	case machine.StopFault:
		k.closeBurst(t, "fault")
		k.removeTaskWith(t, faultExitReason(k.M.Cycles(), res.Fault))
		return nil
	}
	return nil
}

// closeBurst ends the task's current execution burst at a trap boundary
// and reports the measured cycles. Only SVC, HLT and faults close a
// burst — interrupts and budget splits merely suspend it — so the
// emitted cycle count is comparable to the static verifier's worst-case
// burst bound.
func (k *Kernel) closeBurst(t *TCB, boundary string) {
	cycles := t.burstAcc
	t.burstAcc = 0
	if k.Obs == nil {
		return
	}
	k.emit(trace.KindTaskBurst, t.Name,
		trace.Num("cycles", cycles), trace.Str("boundary", boundary))
}

// preemptIfNeeded parks the current task when a strictly
// higher-priority task is ready to run.
func (k *Kernel) preemptIfNeeded() error {
	t := k.current
	if t == nil || t.State != StateRunning {
		return nil
	}
	for p := NumPriorities - 1; p > t.Priority; p-- {
		if len(k.ready[p]) == 0 {
			continue
		}
		if err := k.parkCurrentContext(); err != nil {
			return err
		}
		if t.State != StateDead {
			t.EntryInfo = EntryResumed
			k.enqueue(t)
		}
		k.current = nil
		k.preempted++
		return nil
	}
	return nil
}

// frameFault retires the live task t whose context could not be
// banked — the exception-frame push or the interrupt path's save was
// refused because its SP pointed at memory it may not write — with a
// fault exit carrying the refused address.
func (k *Kernel) frameFault(t *TCB, err error) {
	var f *machine.Fault
	if !errors.As(err, &f) {
		f = &machine.Fault{PC: k.M.EIP(), Why: "context save", Wrap: err}
	}
	k.ctxLive = false
	k.removeTaskWith(t, faultExitReason(k.M.Cycles(), f))
}
