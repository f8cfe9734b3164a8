package core

import (
	"reflect"
	"testing"

	"netupdate/internal/migration"
)

// TestPlanOfAppliesLikeThePlan holds a plan rebuilt from its record
// (Record, then PlanOf) to the probed plan on the worlds of
// TestPlanApplyMatchesExecuteOnFatTree with hashed desired paths, where
// migrations and splits occur: it predicts the fork's execution, records
// to the same data, and applying it — every victim resolved by ID —
// leaves the live network equal to the fork.
func TestPlanOfAppliesLikeThePlan(t *testing.T) {
	steps, splits := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		net, cfg, p, events := loadedFatTree(t, seed, migration.DesiredHash)
		for _, ev := range events {
			what := "seed " + itoa(seed) + " ev" + itoa(int64(ev.ID))
			probed, err := p.ProbePlan(ev)
			if err != nil {
				t.Fatal(err)
			}
			rec := probed.Record()
			pl, err := p.PlanOf(ev, &rec)
			if err != nil {
				t.Fatalf("%s: PlanOf: %v", what, err)
			}
			if again := pl.Record(); !reflect.DeepEqual(again, rec) {
				t.Fatalf("%s: rebuilt plan records\n %+v\nwant\n %+v", what, again, rec)
			}
			fork, res := forkExecute(t, net, cfg, ev)
			requirePlanIs(t, pl, res, what)
			if _, err := p.Apply(pl); err != nil {
				t.Fatalf("%s: apply: %v", what, err)
			}
			captureLive(fork).requireEqual(t, captureLive(net), "Planner.Apply of a rebuilt plan against a forked Execute")
			for _, f := range rec.Flows {
				for _, st := range f.Steps {
					steps++
					if st.Split {
						splits++
					}
				}
			}
		}
	}
	if steps == 0 || splits == 0 {
		t.Errorf("records hold %d steps and %d splits; want both", steps, splits)
	}
}

// TestPlanOfRefusesMisfits: PlanOf refuses a record that does not fit
// its event or the graph, before anything is applied.
func TestPlanOfRefusesMisfits(t *testing.T) {
	_, _, p, events := loadedFatTree(t, 3, migration.DesiredHash)
	ev := events[0]
	probed, err := p.ProbePlan(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(r *PlanRecord)
	}{
		{"other-event", func(r *PlanRecord) { r.Event++ }},
		{"missing-flow", func(r *PlanRecord) { r.Flows = r.Flows[1:] }},
		{"ids-out-of-order", func(r *PlanRecord) { r.Base = r.Flows[len(r.Flows)-1].ID + 1 }},
		{"path-elsewhere", func(r *PlanRecord) {
			for i := range r.Flows {
				if !r.Flows[i].Failed {
					r.Flows[i].Path = r.Flows[(i+1)%len(r.Flows)].Path
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := probed.Record()
			rec.Flows = append([]FlowRecord(nil), rec.Flows...)
			tc.edit(&rec)
			if _, err := p.PlanOf(ev, &rec); err == nil {
				t.Fatal("PlanOf accepted the record")
			}
		})
	}
}
