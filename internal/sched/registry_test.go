package sched

import (
	"errors"
	"strings"
	"testing"
)

func TestNewRegisteredNames(t *testing.T) {
	for name, wantType := range map[string]string{
		"fifo":    "sched.FIFO",
		"reorder": "sched.Reorder",
		"lmtf":    "*sched.LMTF",
		"p-lmtf":  "*sched.PLMTF",
	} {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := typeName(s); got != wantType {
			t.Errorf("New(%q) built %s, want %s", name, got, wantType)
		}
	}
}

func typeName(s Scheduler) string {
	switch s.(type) {
	case FIFO:
		return "sched.FIFO"
	case Reorder:
		return "sched.Reorder"
	case *LMTF:
		return "*sched.LMTF"
	case *PLMTF:
		return "*sched.PLMTF"
	default:
		return "unknown"
	}
}

// TestNewUnknownScheduler: an unregistered name — a typo, or "min-cost",
// which old WAL metas may still name — is refused with the registered
// names listed.
func TestNewUnknownScheduler(t *testing.T) {
	for _, bad := range []string{"bogus", "min-cost"} {
		_, err := New(bad)
		if err == nil {
			t.Fatalf("New(%s) succeeded", bad)
		}
		var unknown *UnknownSchedulerError
		if !errors.As(err, &unknown) {
			t.Fatalf("error %T is not *UnknownSchedulerError", err)
		}
		if unknown.Name != bad {
			t.Errorf("Name = %q, want %s", unknown.Name, bad)
		}
		for _, want := range []string{"fifo", "lmtf", "p-lmtf", "reorder"} {
			found := false
			for _, name := range unknown.Registered {
				if name == want {
					found = true
				}
			}
			if !found {
				t.Errorf("Registered %v misses %q", unknown.Registered, want)
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error message %q does not list %q", err, want)
			}
		}
	}
}

func TestNewOptions(t *testing.T) {
	s, err := New("lmtf", WithAlpha(7), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	l := s.(*LMTF)
	if l.Alpha != 7 {
		t.Errorf("Alpha = %d, want 7", l.Alpha)
	}
	if l.record {
		t.Error("probe recording on without a tracer attached")
	}

	p, err := New("p-lmtf", WithAlpha(2), WithScanAll())
	if err != nil {
		t.Fatal(err)
	}
	if !p.(*PLMTF).scanAll {
		t.Error("WithScanAll did not enable full-queue co-scheduling")
	}
	if got := p.Name(); !strings.Contains(got, "full") {
		t.Errorf("scan-all scheduler Name() = %q, want the full variant", got)
	}

	// Options that do not apply to the policy are ignored, not fatal.
	if _, err := New("fifo", WithScanAll(), WithAlpha(4)); err != nil {
		t.Errorf("New(fifo, inapplicable options): %v", err)
	}
}

func TestNewDefaultAlpha(t *testing.T) {
	s, err := New("lmtf", WithAlpha(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*LMTF).Alpha; got != DefaultAlpha {
		t.Errorf("Alpha = %d, want DefaultAlpha %d", got, DefaultAlpha)
	}
}
