package fleet

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/telf"
)

// Firmware variants: a fleet does not run one binary — it runs a
// handful of published builds (staged rollouts, per-region configs).
// VariantImage produces build v of the same firmware: the immediate in
// the setup sequence differs, so every variant has a distinct measured
// identity while remaining a valid, runnable task. Builds with v below
// the published count form the plane's known-good set; higher v values
// are "unpublished" builds — what a tampered or stale device runs. They
// execute fine on the device; only the verifier plane can tell.

// firmwareSrc is the fleet firmware template: a periodic sensor loop
// (sleep syscall, then again), with a build-distinguishing immediate.
const firmwareSrc = `
.task "fleet-fw"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, %d
loop:
    ldi r0, 32000
    svc 2
    jmp loop
`

// VariantImage assembles firmware build v.
func VariantImage(v int) (*telf.Image, error) {
	im, err := asm.Assemble(fmt.Sprintf(firmwareSrc, 1000+v))
	if err != nil {
		return nil, fmt.Errorf("fleet: variant %d: %w", v, err)
	}
	return im, nil
}

// variantImages assembles builds [0, n).
func variantImages(n int) ([]*telf.Image, error) {
	out := make([]*telf.Image, n)
	for v := range out {
		im, err := VariantImage(v)
		if err != nil {
			return nil, err
		}
		out[v] = im
	}
	return out, nil
}
