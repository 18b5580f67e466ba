package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// reference.json holds the accuracy every (workload, resolution, campaign
// seed) must reproduce within tolerance. Regenerate it with
// --gen-reference only when a change is meant to alter the results.
//
//go:embed reference.json
var referenceJSON []byte

// tolerance bounds |accuracy - reference|. The factored and materialised
// decompose paths differ by at most 1e-12, so either passes.
const tolerance = 1e-9

// references maps "workload/res<R>" to campaign seed to accuracy.
type references map[string]map[string]float64

func refKey(workload string, res int) string { return fmt.Sprintf("%s/res%d", workload, res) }

func loadReferences(perturb float64) (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	for _, bySeed := range refs {
		for s := range bySeed {
			bySeed[s] += perturb
		}
	}
	return refs, nil
}

// checkAccuracy compares one campaign's accuracy with its reference.
func (b *bench) checkAccuracy(res int, seed int64, acc float64) error {
	ref, ok := b.refs[refKey(b.workload, res)][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no reference accuracy for %s res %d seed %d", b.workload, res, seed)
	}
	if d := math.Abs(acc - ref); !(d <= tolerance) {
		return fmt.Errorf("seed %d: accuracy %.15g differs from reference %.15g by %.3g", seed, acc, ref, d)
	}
	return nil
}

// genReferences recomputes every reference accuracy in-process through
// m2td.RunCtx, with the configs the workloads use, and writes the table.
func genReferences(w io.Writer) error {
	refs := references{}
	for _, wl := range []string{"exact-cold", "sampled-res20", "dmtd-res16"} {
		for _, smoke := range []bool{false, true} {
			sz := sizesFor(wl, smoke)
			bySeed := map[string]float64{}
			for s := int64(1); s <= seedPool; s++ {
				cfg := campaignConfig(sz, s)
				if wl == "dmtd-res16" {
					cfg.Workers = dmtdWorkers
				}
				rep, err := runCampaign(context.Background(), cfg)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, s, err)
				}
				bySeed[strconv.FormatInt(s, 10)] = rep.Accuracy
				fmt.Fprintf(os.Stderr, "%s res %d seed %d: %.15g\n", wl, sz.res, s, rep.Accuracy)
			}
			refs[refKey(wl, sz.res)] = bySeed
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
