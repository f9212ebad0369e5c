package experiments

import (
	"math"
	"time"

	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/report"
	"eaao/internal/stats"
)

// fig5Region is one region's week-long tracking study.
type fig5Region struct {
	kept    int
	minAbsR float64
	expDays []float64
	xs, ys  []float64
}

func runFig5(ctx Context) (*Result, error) {
	d, _ := ByID("fig5")
	res := newResult(d)
	profiles := ctx.Profiles()

	// One trial per region, each tracking its own single-region world from
	// the trial sub-seed.
	regions, err := runTrials(ctx, len(profiles), func(t Trial) (fig5Region, error) {
		prof := profiles[t.Index]
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)
		svc := dc.Account("account-1").DeployService("tracker", faas.ServiceConfig{})
		if _, err := svc.Launch(ctx.trackedInstances()); err != nil {
			return fig5Region{}, err
		}

		// Hourly fingerprint collection; instance churn breaks histories,
		// so track per instance identity.
		histories := make(map[string]*fingerprint.History)
		order := []string{} // deterministic iteration over histories
		hours := int(ctx.trackingDuration() / time.Hour)
		for h := 0; h <= hours; h++ {
			for _, inst := range svc.ActiveInstances() {
				g, err := inst.Guest()
				if err != nil {
					continue
				}
				s, err := fingerprint.CollectGen1(g)
				if err != nil {
					return fig5Region{}, err
				}
				hist := histories[inst.ID()]
				if hist == nil {
					hist = &fingerprint.History{}
					histories[inst.ID()] = hist
					order = append(order, inst.ID())
				}
				hist.Add(dc.Now(), s.BootTimeReported())
			}
			dc.Scheduler().Advance(time.Hour)
		}

		// Filter to histories spanning at least 24 hours, fit drift, and
		// interpolate expiration.
		out := fig5Region{minAbsR: 1.0}
		for _, id := range order {
			hist := histories[id]
			if hist.Span() < 24*time.Hour {
				continue
			}
			drift, err := hist.FitDrift()
			if err != nil {
				continue
			}
			out.kept++
			if r := math.Abs(drift.R); r < out.minAbsR {
				out.minAbsR = r
			}
			if exp, ok := drift.Expiration(fingerprint.DefaultPrecision); ok {
				out.expDays = append(out.expDays, exp.Hours()/24)
			}
		}

		cdf := stats.NewCDF(out.expDays)
		for day := 0.0; day <= 7.0; day += 0.25 {
			out.xs = append(out.xs, day)
			out.ys = append(out.ys, cdf.At(day))
		}
		svc.Disconnect()
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &report.Figure{
		ID:     "fig5",
		Title:  "CDF of estimated fingerprint expiration time",
		XLabel: "expiration (days)",
		YLabel: "CDF",
	}
	minAbsR := 1.0
	var allExpDays []float64
	for ri, r := range regions {
		region := profiles[ri].Name
		res.Metrics["histories_"+string(region)] = float64(r.kept)
		allExpDays = append(allExpDays, r.expDays...)
		if r.minAbsR < minAbsR {
			minAbsR = r.minAbsR
		}
		fig.AddSeries(string(region), r.xs, r.ys)
	}
	res.Figures = append(res.Figures, fig)

	all := stats.NewCDF(allExpDays)
	res.Metrics["min_abs_r"] = minAbsR
	res.Metrics["cdf_at_2_days"] = all.At(2)
	res.Metrics["cdf_at_7_days"] = all.At(7)
	if len(allExpDays) > 0 {
		res.Metrics["median_expiration_days"] = stats.Median(allExpDays)
	}
	res.note("paper: T_boot drifts linearly (min |r| = 0.9997); ~10%% of fingerprints expire within ~2 days; most last several days")
	return res, nil
}
