package experiments

import (
	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/report"
	"eaao/internal/sandbox"
)

func runFig12(ctx Context) (*Result, error) {
	d, _ := ByID("fig12")
	res := newResult(d)
	profiles := ctx.Profiles()
	attacker, victims := accounts()
	allAccounts := append([]string{attacker}, victims...)

	// Four launches per service: helper-host unlocking saturates after three
	// consecutive hot launches, so the fourth explores at full width.
	servicesPerAccount := 8
	launches := 4
	if ctx.Quick {
		servicesPerAccount = 4
	}

	// One trial per region, each exploring its own single-region world.
	type scaleRun struct {
		attackerHosts int
		trueHosts     int
		est           *attack.ScaleEstimate
	}
	runs, err := runTrials(ctx, len(profiles), func(t Trial) (scaleRun, error) {
		prof := profiles[t.Index]
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)

		// First, the attacker's own footprint with the standard optimized
		// campaign (six services): the paper reports the share of the
		// discovered fleet the attacker occupies.
		camp, err := ctx.attackerCampaign(dc, attacker, attack.OptimizedStrategy{}, sandbox.Gen1)
		if err != nil {
			return scaleRun{}, err
		}

		// Then the scale exploration with 8 services from each of the three
		// accounts.
		cfg := ctx.attackCfg()
		cfg.Launches = launches
		est, err := attack.EstimateScale(dc, allAccounts, servicesPerAccount, cfg)
		if err != nil {
			return scaleRun{}, err
		}
		return scaleRun{camp.Result().Footprint.Cumulative(), dc.TrueHostCount(), est}, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &report.Figure{
		ID:     "fig12",
		Title:  "Cumulative unique apparent hosts across exploration launches",
		XLabel: "launch",
		YLabel: "cumulative unique apparent hosts",
	}
	tbl := report.NewTable("Data-center scale estimation",
		"region", "found hosts", "capture-recapture estimate", "true hosts", "attacker hosts", "attacker share")

	for ri, run := range runs {
		region := profiles[ri].Name
		est := run.est

		xs := make([]float64, len(est.CumulativeByLaunch))
		ys := make([]float64, len(est.CumulativeByLaunch))
		for i, v := range est.CumulativeByLaunch {
			xs[i] = float64(i + 1)
			ys[i] = float64(v)
		}
		fig.AddSeries(string(region), xs, ys)

		share := float64(run.attackerHosts) / float64(est.UniqueHosts)
		tbl.AddRow(string(region), est.UniqueHosts, est.ChapmanEstimate, run.trueHosts, run.attackerHosts, share)
		res.Metrics["found_"+string(region)] = float64(est.UniqueHosts)
		res.Metrics["chapman_"+string(region)] = est.ChapmanEstimate
		res.Metrics["true_"+string(region)] = float64(run.trueHosts)
		res.Metrics["attacker_share_"+string(region)] = share
	}
	res.Figures = append(res.Figures, fig)
	res.Tables = append(res.Tables, tbl)
	res.note("paper: 474 apparent hosts in us-east1, 1702 in us-central1, 199 in us-west1; the attacker occupied 59%%, 53%%, and 82%% of them (904 hosts at once in us-central1)")
	res.note("extension: the capture-recapture (Chapman) column is a point estimate of the reachable fleet from the overlap between exploration halves — the paper reports only the lower bound")
	return res, nil
}
