package experiments

import (
	"fmt"
	"math/rand"

	"netupdate/internal/metrics"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// Fig1 measures the success probability of inserting one flow of an update
// event into the fat-tree *without* migrating any existing flow, as link
// utilization rises — Fig. 1 of the paper, with subplot (a) the Yahoo!-like
// trace and (b) the random trace. Flows are classed small/medium/large to
// show the probability is poor "irrespective of the flow size".
func Fig1(opts Options) (*Report, error) {
	utils := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	k, trials := 8, 400
	classes := []struct {
		name   string
		demand topology.Bandwidth
	}{
		{"small(5M)", 5 * topology.Mbps},
		{"medium(30M)", 30 * topology.Mbps},
		{"large(80M)", 80 * topology.Mbps},
	}

	r := &Report{
		Name:        "fig1",
		Description: "success probability of accommodating a flow without migration",
	}
	for mi, model := range []trace.Model{trace.YahooLike{}, trace.Uniform{}} {
		sub := "(a) Yahoo!-like trace"
		if mi == 1 {
			sub = "(b) random trace"
		}
		table := metrics.NewTable("Fig 1"+sub,
			"utilization", classes[0].name, classes[1].name, classes[2].name)
		for ui, u := range utils {
			env, err := NewEnv(Setup{
				K:           k,
				Utilization: u,
				Model:       model,
				Seed:        opts.Seed*1000 + int64(mi*100+ui),
			})
			if err != nil {
				return nil, err
			}
			// A flow is accommodated without migration iff its hash-pinned
			// desired path (random member of the ECMP set, like a 5-tuple
			// hash) has room — the regime behind Fig. 1's steep decline.
			rng := rand.New(rand.NewSource(int64(env.Net.Graph().NumLinks()) + int64(ui)))
			probs := make([]float64, len(classes))
			for ci, class := range classes {
				success := 0
				for trial := 0; trial < trials; trial++ {
					spec := env.Gen.Spec()
					paths := env.Net.Provider().Paths(spec.Src, spec.Dst)
					if paths.Len() == 0 {
						continue
					}
					desired := paths.At(rng.Intn(paths.Len()))
					if desired.Fits(env.Net.Graph(), class.demand) {
						success++
					}
				}
				probs[ci] = float64(success) / float64(trials)
			}
			table.AddRow(fmt.Sprintf("%.1f", u), probs[0], probs[1], probs[2])
			if u >= 0.69 && u <= 0.71 {
				r.headline(fmt.Sprintf("success@0.7 %s large", model.Name()), probs[2])
			}
		}
		r.Tables = append(r.Tables, table)
	}
	r.Notes = append(r.Notes,
		"synthetic traces substitute the proprietary Yahoo!/Benson datasets (see DESIGN.md)")
	return r, nil
}
