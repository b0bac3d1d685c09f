package workload

import (
	"testing"

	"largewindow/internal/emu"
)

// omittedNames are the two kernels the paper excluded (omitted.go).
var omittedNames = []string{"ammp", "health"}

func TestOmittedExcludedFromSuites(t *testing.T) {
	omitted := 0
	for _, sp := range registry {
		if sp.Omitted {
			omitted++
		}
	}
	if omitted != len(omittedNames) {
		t.Fatalf("registry marks %d kernels omitted, want %v", omitted, omittedNames)
	}
	for _, name := range omittedNames {
		sp, ok := Get(name)
		if !ok || !sp.Omitted {
			t.Errorf("%s not retrievable via Get with Omitted set", name)
		}
	}
	for _, sp := range All() {
		if sp.Omitted {
			t.Errorf("%s leaked into the evaluation suites", sp.Name)
		}
	}
}

func TestOmittedKernelsTerminate(t *testing.T) {
	for _, name := range omittedNames {
		spec, _ := Get(name)
		m := emu.New(spec.Build(ScaleTest))
		n, err := m.Run(30_000_000)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n < 1000 {
			t.Errorf("%s ran only %d instructions", name, n)
		}
	}
}
