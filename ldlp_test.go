package ldlp_test

import (
	"strings"
	"testing"

	"ldlp"
)

func TestPublicStackAPI(t *testing.T) {
	s := ldlp.NewStack[string](ldlp.Options{Discipline: ldlp.LDLP, BatchLimit: 4})
	var out []string
	lower := s.AddLayer("lower", func(m string, emit ldlp.Emit[string]) {
		emit(s.Layers()[1], m+".l1")
	})
	upper := s.AddLayer("upper", func(m string, emit ldlp.Emit[string]) {
		emit(nil, m+".l2")
	})
	s.Link(lower, upper)
	s.SetSink(func(m string) { out = append(out, m) })
	for _, m := range []string{"a", "b", "c"} {
		if err := s.Inject(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Run(); n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	if strings.Join(out, ",") != "a.l1.l2,b.l1.l2,c.l1.l2" {
		t.Errorf("out = %v", out)
	}
	if s.Stats().QueueOps == 0 {
		t.Error("LDLP should count queue operations")
	}
}

func TestPublicWorkingSetReport(t *testing.T) {
	a := ldlp.WorkingSetReport(552, 32)
	if a.Code.Bytes < 25000 || a.Code.Bytes > 35000 {
		t.Errorf("code working set = %d, expect ≈30KB", a.Code.Bytes)
	}
	if len(a.PerLayer) != len(ldlp.PaperTable1()) {
		t.Errorf("layers = %d, want %d", len(a.PerLayer), len(ldlp.PaperTable1()))
	}
	if len(a.Phases) != 3 {
		t.Errorf("phases = %d, want 3", len(a.Phases))
	}
}

func TestPublicLineSizeSweep(t *testing.T) {
	sweeps := ldlp.LineSizeSweep(552, []int{16, 64})
	if len(sweeps) != 3 {
		t.Fatalf("classes = %d, want 3", len(sweeps))
	}
	for _, sw := range sweeps {
		if len(sw.Deltas) != 2 {
			t.Errorf("%s deltas = %d, want 2", sw.Class, len(sw.Deltas))
		}
	}
}

func TestPublicSimRun(t *testing.T) {
	cfg := ldlp.DefaultSimConfig(ldlp.LDLP)
	cfg.Duration = 0.1
	res := ldlp.RunSim(cfg, ldlp.NewPoisson(5000, 552, 1))
	if res.Processed == 0 {
		t.Fatal("simulation processed nothing")
	}
	if res.Latency.Mean() <= 0 {
		t.Error("latency should be positive")
	}
}

func TestPublicFigure8(t *testing.T) {
	tab := ldlp.Figure8(200, 100)
	if len(tab.Points) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Points))
	}
	s := tab.String()
	if !strings.Contains(s, "4.4BSD cold") {
		t.Errorf("table missing series: %s", s)
	}
}

func TestPublicChecksums(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03}
	if ldlp.ChecksumSimple(data) != ldlp.ChecksumUnrolled(data) {
		t.Error("checksum variants disagree")
	}
}

func TestPublicNetworking(t *testing.T) {
	n := ldlp.NewNet()
	a := n.AddHost("a", ldlp.IPAddr{10, 9, 0, 1}, ldlp.DefaultHostOptions(ldlp.LDLP))
	b := n.AddHost("b", ldlp.IPAddr{10, 9, 0, 2}, ldlp.DefaultHostOptions(ldlp.LDLP))
	sa, err := a.UDPSocket(5)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.UDPSocket(6)
	if err != nil {
		t.Fatal(err)
	}
	sa.SendTo(b.IP(), 6, []byte("via public api"))
	n.RunUntilIdle()
	dg, ok := sb.Recv()
	if !ok || string(dg.Data) != "via public api" {
		t.Fatalf("got %v %q", ok, dg.Data)
	}
}

func TestPublicSignalling(t *testing.T) {
	n := ldlp.NewNet()
	hu := n.AddHost("u", ldlp.IPAddr{10, 9, 1, 1}, ldlp.DefaultHostOptions(ldlp.Conventional))
	hn := n.AddHost("n", ldlp.IPAddr{10, 9, 1, 2}, ldlp.DefaultHostOptions(ldlp.Conventional))
	au, err := ldlp.NewSignalAgent(hu, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ldlp.NewSignalAgent(hn, 2)
	if err != nil {
		t.Fatal(err)
	}
	call := au.Dial(hn.IP(), 2, 100)
	for i := 0; i < 6; i++ {
		n.RunUntilIdle()
		an.Poll()
		au.Poll()
	}
	if call.State() != ldlp.CallActive {
		t.Errorf("call state = %v, want active", call.State())
	}
}

func TestPublicLayoutBenefit(t *testing.T) {
	b := ldlp.LayoutBenefit(552, 32)
	if b.Reduction < 0.1 || b.Reduction > 0.4 {
		t.Errorf("layout reduction = %.3f, expect ≈0.2 (paper ≈0.25)", b.Reduction)
	}
	if b.After.Lines >= b.Before.Lines {
		t.Error("layout must shrink the working set")
	}
}

func TestPublicEstimateHurst(t *testing.T) {
	arr := ldlp.SynthesizeTrace(2000, 60, 3)
	h, err := ldlp.EstimateHurst(arr, 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.6 {
		t.Errorf("self-similar H = %.2f, want Bellcore-like (>0.6)", h)
	}
}
