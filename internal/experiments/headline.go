package experiments

import (
	"fmt"
	"math"

	"vitdyn/internal/report"
)

// Claim is one of the paper's headline quantitative claims with our
// measured counterpart.
type Claim struct {
	ID       string
	Text     string
	Paper    float64 // the paper's number (fraction)
	Measured float64
}

// RelErr returns |measured-paper|/paper.
func (c Claim) RelErr() float64 {
	if c.Paper == 0 {
		return math.Abs(c.Measured)
	}
	return math.Abs(c.Measured-c.Paper) / math.Abs(c.Paper)
}

// savingsAtLoss returns the best cost saving achievable at the given
// absolute accuracy loss over a set of tradeoff points, linearly
// interpolating along the Pareto curve between the tightest bracketing
// points (the paper's tradeoff curves are piecewise-continuous sweeps).
func savingsAtLoss(rows []TradeoffRow, source string, maxLoss float64, energy bool) float64 {
	saving := func(r TradeoffRow) float64 {
		if energy {
			return r.EnergySave
		}
		return r.TimeSave
	}
	best := 0.0
	// Bracketing candidates for interpolation.
	haveUnder, haveOver := false, false
	var under, over TradeoffRow
	for _, r := range rows {
		if r.Source != source {
			continue
		}
		if r.AccLoss <= maxLoss {
			if s := saving(r); s > best {
				best = s
			}
			if !haveUnder || saving(r) > saving(under) {
				under, haveUnder = r, true
			}
		} else if !haveOver || r.AccLoss < over.AccLoss {
			over, haveOver = r, true
		}
	}
	if haveUnder && haveOver && saving(over) > saving(under) && over.AccLoss > under.AccLoss {
		t := (maxLoss - under.AccLoss) / (over.AccLoss - under.AccLoss)
		if interp := saving(under) + t*(saving(over)-saving(under)); interp > best {
			best = interp
		}
	}
	return best
}

// HeadlineClaims recomputes the paper's headline numbers from the
// experiment harness:
//
//	H1  28% energy saved at 1.4% mIoU loss, SegFormer ADE B2 on accelerator
//	    E, no retraining (abstract / Section V-A)
//	H2  18% execution time saved at the same 1.4% loss (Section V-A)
//	H3  53% energy saved at 3.3% top-1 loss by OFA ResNet-50 switching
//	    (abstract / Section V-C)
//	H4  58% execution time saved at the same 3.3% loss (Section V-C)
//	H5  11% GPU time saved at 1.9% mIoU loss, pretrained SegFormer ADE
//	H6  11% GPU time saved at 0.9% loss, pretrained SegFormer City
//	H7  51% GPU time saved at 4.3% loss switching retrained ADE models
//	H8  45% GPU time saved at 2.5% loss switching retrained City models
//	H9  45% accelerator time/energy saved at 4.3% loss, pruning without
//	    retraining (Section V-A)
//	H10 55% accelerator time/energy saved at 4.3% loss with retraining
//
// The four underlying experiments each run their sweep across workers
// goroutines (0 = GOMAXPROCS).
func HeadlineClaims(workers int) ([]Claim, error) {
	fig11, err := Fig11SegFormerAccelTradeoff(workers)
	if err != nil {
		return nil, err
	}
	fig13, err := Fig13OFASwitching(workers)
	if err != nil {
		return nil, err
	}
	fig10ADE, err := Fig10SegFormerGPUTradeoff("ADE", workers)
	if err != nil {
		return nil, err
	}
	fig10City, err := Fig10SegFormerGPUTradeoff("City", workers)
	if err != nil {
		return nil, err
	}

	// OFA: find the subnet closest to a 3.3% drop.
	var ofaTime, ofaEnergy float64
	for _, r := range fig13 {
		if r.AccLoss <= 0.0335 {
			if r.EnergySave > ofaEnergy {
				ofaEnergy = r.EnergySave
			}
			if r.TimeSave > ofaTime {
				ofaTime = r.TimeSave
			}
		}
	}

	claims := []Claim{
		{
			ID:       "H1",
			Text:     "SegFormer ADE B2 on accelerator E: energy saved at 1.4% mIoU loss, no retraining",
			Paper:    0.28,
			Measured: savingsAtLoss(fig11, "pretrained", 0.0142, true),
		},
		{
			ID:       "H2",
			Text:     "SegFormer ADE B2 on accelerator E: time saved at 1.4% mIoU loss, no retraining",
			Paper:    0.18,
			Measured: savingsAtLoss(fig11, "pretrained", 0.0142, false),
		},
		{
			ID:       "H3",
			Text:     "OFA ResNet-50 switching on accelerator E: energy saved at 3.3% top-1 loss",
			Paper:    0.53,
			Measured: ofaEnergy,
		},
		{
			ID:       "H4",
			Text:     "OFA ResNet-50 switching on accelerator E: time saved at 3.3% top-1 loss",
			Paper:    0.58,
			Measured: ofaTime,
		},
		{
			ID:       "H5",
			Text:     "SegFormer ADE B2 on GPU: time saved at 1.9% mIoU loss, pretrained",
			Paper:    0.11,
			Measured: savingsAtLoss(fig10ADE, "pretrained", 0.019, false),
		},
		{
			ID:       "H6",
			Text:     "SegFormer City B2 on GPU: time saved at 0.9% mIoU loss, pretrained",
			Paper:    0.11,
			Measured: savingsAtLoss(fig10City, "pretrained", 0.009, false),
		},
		{
			ID:       "H7",
			Text:     "Retrained switching ADE B2->B1 on GPU: time saved at 4.3% loss",
			Paper:    0.51,
			Measured: savingsAtLoss(fig10ADE, "retrained", 0.0435, false),
		},
		{
			ID:       "H8",
			Text:     "Retrained switching City B2->B1 on GPU: time saved at 2.5% loss",
			Paper:    0.45,
			Measured: savingsAtLoss(fig10City, "retrained", 0.0255, false),
		},
		{
			ID:       "H9",
			Text:     "SegFormer on accelerator E: time+energy saved at 4.3% loss, pretrained",
			Paper:    0.45,
			Measured: savingsAtLoss(fig11, "pretrained", 0.0435, true),
		},
		{
			ID:       "H10",
			Text:     "SegFormer on accelerator E: time+energy saved at 4.3% loss, retrained (B1)",
			Paper:    0.55,
			Measured: savingsAtLoss(fig11, "retrained", 0.0435, true),
		},
	}
	return claims, nil
}

// RenderClaims renders the paper-vs-measured claim table.
func RenderClaims(claims []Claim) *report.Table {
	t := report.NewTable("Headline claims: paper vs measured",
		"ID", "Claim", "Paper", "Measured", "RelErr%")
	for _, c := range claims {
		t.AddRowf(c.ID, c.Text, c.Paper, c.Measured, 100*c.RelErr())
	}
	return t
}

// Summary prints a one-line verdict per claim.
func Summary(claims []Claim) string {
	out := ""
	for _, c := range claims {
		out += fmt.Sprintf("%s: paper %.2f measured %.2f (%.0f%% rel err)\n",
			c.ID, c.Paper, c.Measured, 100*c.RelErr())
	}
	return out
}
