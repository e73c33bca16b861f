package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/rtos"
)

// victimSrc is a secure task that counts its activations in its own
// memory and sleeps; it never touches a device.
const victimSrc = `
.task "victim"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 0
loop:
    addi r1, 1
    ldi32 r0, 20000
    svc 2
    jmp loop
`

// rogueSrc forges its stack pointer to SP and then either sleeps (the
// kernel's software-initiated frame push) or spins until the timer tick
// interrupts it (the exception engine's push).
func rogueSrc(sp uint32, viaIRQ bool) string {
	tail := "    ldi32 r0, 1000\n    svc 2\n    jmp main\n"
	if viaIRQ {
		tail = "spin:\n    jmp spin\n"
	}
	return fmt.Sprintf(`
.task "rogue"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r7, %#x
%s`, sp, tail)
}

// TestForgedSPIsolation: a task that points SP at another task's code,
// at a device page or at unmapped low memory and is then suspended
// must not get the exception-frame push to write there. The push is a
// checked store in the task's own protection context; the refusal
// retires the rogue with a typed fault exit naming the address, Run
// keeps returning nil, the victim's code is untouched, no actuator
// command lands, and the victim keeps running. Each cell runs on the
// reference interpreter and on the default engine.
func TestForgedSPIsolation(t *testing.T) {
	engines := []struct {
		name string
		e    Engine
	}{{"reference", EngineReference}, {"default", EngineDefault}}
	for _, eng := range engines {
		for _, kind := range []rtos.TaskKind{Normal, Secure} {
			for _, viaIRQ := range []bool{false, true} {
				for _, target := range []string{"victim-code", "actuator", "low-memory"} {
					name := fmt.Sprintf("%s/%v/irq=%v/%s", eng.name, kind, viaIRQ, target)
					t.Run(name, func(t *testing.T) {
						forgedSPCell(t, eng.e, kind, viaIRQ, target)
					})
				}
			}
		}
	}
}

func forgedSPCell(t *testing.T, engine Engine, kind rtos.TaskKind, viaIRQ bool, target string) {
	p, err := NewPlatform(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	victim, _, err := p.LoadTaskSync(mustImage(t, victimSrc), Secure, 5)
	if err != nil {
		t.Fatal(err)
	}
	code := victim.Placement.Base
	var sp uint32
	switch target {
	case "victim-code":
		sp = code + 4 // EFLAGS would overwrite the victim's first word
	case "actuator":
		sp = machine.DeviceAddr(machine.PageEngine) + 8 // EIP would be a command
	case "low-memory":
		sp = 8
	}
	text := victim.Placement.Image.Text
	before, err := p.M.ReadBytes(code, uint32(len(text)))
	if err != nil {
		t.Fatal(err)
	}
	rogue, _, err := p.LoadTaskSync(mustImage(t, rogueSrc(sp, viaIRQ)), kind, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(4 * DefaultTickPeriod); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	rec, dead := p.K.ExitInfo(rogue.ID)
	if !dead {
		t.Fatal("rogue still alive after forging its stack pointer")
	}
	if rec.Reason.Cause != rtos.ExitFault || rec.Reason.FaultAddr != sp-4 {
		t.Errorf("rogue exit = %v, want fault at addr %#x", rec.Reason, sp-4)
	}
	if rec.Reason.PC == 0 {
		t.Errorf("rogue exit %v carries no pc", rec.Reason)
	}
	after, err := p.M.ReadBytes(code, uint32(len(text)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("victim code modified by the rogue's exception frame")
	}
	if n := len(p.Engine.Commands()); n != 0 {
		t.Errorf("%d actuator commands landed, want 0", n)
	}
	ran := victim.Activations
	if err := p.Run(4 * DefaultTickPeriod); err != nil {
		t.Fatalf("Run after the kill = %v, want nil", err)
	}
	if _, gone := p.K.ExitInfo(victim.ID); gone || victim.Activations <= ran {
		t.Errorf("victim stopped running (activations %d -> %d, exited %v)", ran, victim.Activations, gone)
	}
}
