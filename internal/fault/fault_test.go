package fault

import (
	"reflect"
	"testing"
	"time"

	"netupdate/internal/topology"
)

func TestInjectionValidate(t *testing.T) {
	tests := []struct {
		name    string
		inj     Injection
		wantErr bool
	}{
		{"link down ok", Injection{At: time.Second, Action: LinkDown, Link: 3}, false},
		{"link out of range", Injection{Action: LinkUp, Link: 10}, true},
		{"negative link", Injection{Action: LinkDown, Link: -1}, true},
		{"switch ok", Injection{Action: SwitchDown, Node: 4}, false},
		{"switch out of range", Injection{Action: SwitchUp, Node: 5}, true},
		{"timeout ok", Injection{Action: InstallTimeout, Event: 7, Times: 2}, false},
		{"timeout negative times", Injection{Action: InstallTimeout, Times: -1}, true},
		{"unknown action", Injection{Action: "nuke"}, true},
		{"negative time", Injection{At: -1, Action: LinkDown}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.inj.Validate(5, 10)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestInjectorFiresInOrderOnce(t *testing.T) {
	in := NewInjector(Script{
		{At: 30 * time.Millisecond, Action: LinkUp, Link: 1},
		{At: 10 * time.Millisecond, Action: LinkDown, Link: 1},
		{At: 10 * time.Millisecond, Action: InstallTimeout, Event: 2},
	})
	if at, ok := in.NextAt(); !ok || at != 10*time.Millisecond {
		t.Fatalf("NextAt() = %v, %v; want 10ms, true", at, ok)
	}
	if due := in.Due(5 * time.Millisecond); due != nil {
		t.Fatalf("Due(5ms) = %v, want nil", due)
	}
	due := in.Due(10 * time.Millisecond)
	if len(due) != 2 || due[0].Action != LinkDown || due[1].Action != InstallTimeout {
		t.Fatalf("Due(10ms) = %v, want [link-down install-timeout]", due)
	}
	// Already fired injections never fire again.
	if again := in.Due(10 * time.Millisecond); again != nil {
		t.Fatalf("repeated Due(10ms) = %v, want nil", again)
	}
	if at, ok := in.NextAt(); !ok || at != 30*time.Millisecond {
		t.Errorf("NextAt() = %v, %v; want 30ms, true (one pending)", at, ok)
	}
	if due := in.Due(time.Second); len(due) != 1 || due[0].Action != LinkUp {
		t.Fatalf("Due(1s) = %v, want the link-up", due)
	}
	if _, ok := in.NextAt(); ok {
		t.Error("NextAt() reports pending work on a drained injector")
	}
}

func TestRandomScriptDeterministicAndValid(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	a := RandomScript(42, g, 5, time.Second, 100*time.Millisecond)
	b := RandomScript(42, g, 5, time.Second, 100*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scripts")
	}
	c := RandomScript(43, g, 5, time.Second, 100*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical scripts")
	}
	if len(a) != 10 {
		t.Fatalf("script length = %d, want 10 (5 down/up pairs)", len(a))
	}
	for i, inj := range a {
		if err := inj.Validate(g.NumNodes(), g.NumLinks()); err != nil {
			t.Errorf("generated injection %d invalid: %v", i, err)
		}
	}
	downs := 0
	for i, inj := range a {
		if i > 0 && a[i-1].At > inj.At {
			t.Fatalf("script not sorted at %d", i)
		}
		// Only fabric links fail.
		l := g.Link(topology.LinkID(inj.Link))
		if !g.Node(l.From).Kind.IsSwitch() || !g.Node(l.To).Kind.IsSwitch() {
			t.Errorf("injection %d targets non-fabric link %v", i, l)
		}
		if inj.Action == LinkDown {
			downs++
		}
	}
	if downs != 5 {
		t.Errorf("down injections = %d, want 5", downs)
	}
}
