package core

import "testing"

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		SerialLoop:     "Serial",
		SerialRDP:      "Serial_RDP",
		OMPTasking:     "OpenMP",
		NativeCnC:      "CnC",
		TunerCnC:       "CnC_tuner",
		ManualCnC:      "CnC_manual",
		NonBlockingCnC: "CnC_nonblocking",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if Variant(99).String() != "Variant(99)" {
		t.Errorf("unknown variant label: %q", Variant(99).String())
	}
}

func TestParallelVariantsOrder(t *testing.T) {
	// The paper's legend order: CnC, CnC_tuner, CnC_manual, OpenMP.
	want := []Variant{NativeCnC, TunerCnC, ManualCnC, OMPTasking}
	if len(ParallelVariants) != len(want) {
		t.Fatalf("%d parallel variants", len(ParallelVariants))
	}
	for i, v := range want {
		if ParallelVariants[i] != v {
			t.Fatalf("ParallelVariants[%d] = %v, want %v", i, ParallelVariants[i], v)
		}
	}
}

func TestModelOf(t *testing.T) {
	if ModelOf(OMPTasking) != ForkJoin {
		t.Fatal("OMPTasking should be fork-join")
	}
	for _, v := range []Variant{NativeCnC, TunerCnC, ManualCnC, NonBlockingCnC} {
		if ModelOf(v) != DataFlow {
			t.Fatalf("%v should be data-flow", v)
		}
	}
	if ForkJoin.String() != "fork-join" || DataFlow.String() != "data-flow" {
		t.Fatal("model names wrong")
	}
}
