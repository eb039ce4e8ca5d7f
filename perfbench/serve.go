package main

import (
	"bytes"
	"fmt"

	"dsenergy/internal/experiments"
	"dsenergy/internal/serve"
)

// campaign builds the serving campaign of experiments.QuickConfig at the
// workload seed: four shards, two million requests, and the persisted
// models the shards publish.
func campaign(e env) (serve.Config, error) {
	cfg := experiments.QuickConfig()
	cfg.Seed = e.seed
	cfg.Jobs = e.workers
	cfg.Obs = e.tr.observer()
	var sc serve.Config
	err := e.tr.call("experiments.serve_campaign_s", func() error {
		var err error
		sc, err = cfg.ServeCampaign()
		return err
	})
	return sc, err
}

// serveCampaign is the serve_campaign workload: one serve.Run of the whole
// campaign per round.
type serveCampaign struct {
	cfg    serve.Config
	first  []byte // the first round's report; every round must match it
	rounds int
	ops    int
}

func setupServe(e env) (workload, error) {
	sc, err := campaign(e)
	if err != nil {
		return nil, err
	}
	return &serveCampaign{cfg: sc}, nil
}

func (w *serveCampaign) prepare(*tracer) error { return nil }

func (w *serveCampaign) round(tr *tracer) (roundOut, error) {
	cfg := w.cfg
	cfg.Obs = tr.observer()
	var rep *serve.Report
	err := tr.call("serve.run_s", func() error {
		var err error
		rep, err = serve.Run(cfg)
		return err
	})
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{
		ops:      rep.Submitted,
		failed:   rep.Submitted - rep.Completed,
		energyJ:  rep.PredEnergyJ,
		answered: rep.Completed,
		problems: checkServeReport(rep),
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		return out, err
	}
	if w.first == nil {
		w.first = text.Bytes()
	} else if !bytes.Equal(text.Bytes(), w.first) {
		out.problems = append(out.problems, "serve report differs between rounds of one seed")
	}
	w.rounds++
	w.ops += rep.Submitted

	tr.set("serve.cache_hit_ratio", rep.CacheHitRate())
	tr.set("serve.misses", float64(rep.Misses))
	tr.set("serve.coalesced", float64(rep.Coalesced))
	tr.set("serve.batches", float64(rep.Batches))
	tr.set("serve.mean_batch_flights", rep.MeanBatchFlights)
	return out, nil
}

// checkServeReport lists what is wrong with a campaign's report: every
// request must be answered or refused, the truncated upload must be
// rejected, and both LiGen versions of the hot-reloaded shard must answer.
func checkServeReport(rep *serve.Report) []string {
	var problems []string
	if rep.Completed+rep.Rejected != rep.Submitted {
		problems = append(problems, fmt.Sprintf("serve lost requests: %d completed + %d rejected != %d submitted",
			rep.Completed, rep.Rejected, rep.Submitted))
	}
	if rep.ReloadsRejected < 1 {
		problems = append(problems, "serve accepted the truncated model upload")
	}
	versions := map[int]bool{}
	for _, v := range rep.PerVersion {
		if v.App == "ligen" && v.Device == "v100-a" && v.Responses > 0 {
			versions[v.Version] = true
		}
	}
	if !versions[1] || !versions[2] {
		problems = append(problems, "serve: LiGen v1 and v2 did not both answer across the hot reload")
	}
	return problems
}

// repeatFrac bounds input.repeat_frac from below: a shard's requests draw
// from its shapes and deadline tiers (malformed requests aside), so a round
// holds at most that many distinct inputs and later rounds repeat the
// first exactly.
func (w *serveCampaign) repeatFrac() float64 {
	distinct := 0
	for _, sh := range w.cfg.Shards {
		tiers := len(sh.Load.Tiers)
		if tiers == 0 {
			tiers = 3 // serve.Load's default deadline tiers
		}
		n := len(sh.Shapes) * tiers
		if sh.Load.MalformedEvery > 0 {
			n *= 2 // a truncated copy of each input
		}
		distinct += n
	}
	return 1 - failedFrac(distinct, w.ops)
}
