// Package magnet implements an analytical simulator of the MAGNet
// accelerator template (Venkatesan et al., ICCAD 2019) as extended for
// transformers (Keller et al., VLSI 2022): a PE array where each processing
// element holds K0 vector multiply-accumulate units of width C0, fed by a
// four-level memory hierarchy (per-vector-MAC register files, per-PE weight
// and input buffers, an array-level global buffer, and off-chip DRAM), with
// an output-stationary local-weight-stationary dataflow and 8-bit data.
//
// Substitution note (see PAPER.md for the paper's setup): the paper synthesizes the design with
// Catapult HLS in 5 nm and measures power with PrimeTime; we model the same
// architecture analytically. The area model is fitted to the paper's
// Table II (±15% per row asserted in tests); the performance model counts
// cycles from the dataflow's loop nest with utilization losses from channel
// divisibility; the energy model counts per-level accesses with
// buffer-size-dependent SRAM energies. Calibration targets (Pareto
// structure of Fig. 6, distributions of Figs. 7-9, 3.6 ms / 12 ms runtimes)
// are asserted in the package tests.
package magnet

import "fmt"

// Config is one parameterization of the MAGNet accelerator template.
type Config struct {
	Name  string
	NumPE int // processing elements in the array
	K0    int // vector MAC units per PE (parallel output channels)
	C0    int // multiplier lanes per vector MAC (parallel input channels)

	WeightBufKB int // per-PE weight buffer (split into K0 banks)
	InputBufKB  int // per-PE input buffer (shared across the K0 vector MACs)
	AccumBufKB  int // per-PE partial-sum buffer
	GlobalBufKB int // array-level shared buffer

	FreqGHz      float64
	DRAMGBs      float64 // off-chip bandwidth, GB/s
	BytesPerElem int     // 8-bit datapath

	// SynthesizedAreaMM2, when positive, overrides the analytic area model
	// with the paper's Table II post-synthesis value.
	SynthesizedAreaMM2 float64
}

// Default microarchitectural constants shared by all Table II rows.
const (
	defaultAccumKB  = 8
	defaultGlobalKB = 4096
	defaultFreqGHz  = 1.25 // synthesized clock of accelerator E (Section IV-C)
	defaultDRAMGBs  = 205  // Orin-class LPDDR5
)

// preset builds a Table II row with its published post-synthesis area.
func preset(name string, numPE, k0, wbKB, ibKB int, areaMM2 float64) Config {
	return Config{
		SynthesizedAreaMM2: areaMM2,
		Name:               name,
		NumPE:              numPE,
		K0:                 k0,
		C0:                 k0, // the paper explores K0 == C0
		WeightBufKB:        wbKB,
		InputBufKB:         ibKB,
		AccumBufKB:         defaultAccumKB,
		GlobalBufKB:        defaultGlobalKB,
		FreqGHz:            defaultFreqGHz,
		DRAMGBs:            defaultDRAMGBs,
		BytesPerElem:       1,
	}
}

// TableII returns the thirteen accelerator parameterizations of the paper's
// Table II, in order A through M.
func TableII() []Config {
	return []Config{
		preset("A", 32, 32, 1024, 64, 16.7),
		preset("B", 32, 32, 128, 64, 4.5),
		preset("C", 16, 32, 1024, 64, 8.3),
		preset("D", 16, 32, 128, 64, 2.3),
		preset("E", 16, 32, 128, 32, 1.9),
		preset("F", 16, 32, 64, 64, 2.0),
		preset("G", 16, 32, 64, 32, 1.7),
		preset("H", 64, 16, 128, 32, 6.1),
		preset("I", 64, 16, 128, 16, 5.4),
		preset("J", 64, 16, 64, 32, 4.2),
		preset("K", 64, 16, 64, 16, 3.5),
		preset("L", 64, 16, 32, 32, 3.3),
		preset("M", 64, 16, 32, 16, 2.6),
	}
}

// ByName returns the Table II configuration with the given label.
func ByName(name string) (Config, error) {
	for _, c := range TableII() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("magnet: no Table II accelerator named %q", name)
}

// AcceleratorE returns the paper's balanced design point used for all the
// Section IV-C / Section V profiling.
func AcceleratorE() Config {
	c, err := ByName("E")
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	switch {
	case c.NumPE <= 0 || c.K0 <= 0 || c.C0 <= 0:
		return fmt.Errorf("magnet %s: non-positive compute dims", c.Name)
	case c.WeightBufKB <= 0 || c.InputBufKB <= 0 || c.AccumBufKB <= 0 || c.GlobalBufKB <= 0:
		return fmt.Errorf("magnet %s: non-positive buffer sizes", c.Name)
	case c.FreqGHz <= 0 || c.DRAMGBs <= 0:
		return fmt.Errorf("magnet %s: non-positive frequency or bandwidth", c.Name)
	case c.BytesPerElem <= 0:
		return fmt.Errorf("magnet %s: non-positive datatype width", c.Name)
	}
	return nil
}

// MACsPerCycle returns the peak multiply-accumulates per cycle.
func (c Config) MACsPerCycle() int { return c.NumPE * c.K0 * c.C0 }

// PeakMACsPerSecond returns the peak MAC throughput.
func (c Config) PeakMACsPerSecond() float64 {
	return float64(c.MACsPerCycle()) * c.FreqGHz * 1e9
}

// Area model constants, fitted to Table II (5 nm, 8-bit datapath).
// Per-PE area = peFixed + macArea*K0*C0 + wbArea*WeightBufKB + ibArea*InputBufKB.
const (
	areaPEFixed = 0.0065  // mm^2: control, sequencing, post-processing unit
	areaPerMAC  = 3.46e-5 // mm^2 per 8-bit MAC incl. register file slice
	areaWBPerKB = 0.00044 // mm^2 per KB of weight buffer
	areaIBPerKB = 0.00070 // mm^2 per KB of input buffer (wider banking)
)

// PEAreaMM2 returns the modeled area of one processing element.
func (c Config) PEAreaMM2() float64 {
	return areaPEFixed +
		areaPerMAC*float64(c.K0*c.C0) +
		areaWBPerKB*float64(c.WeightBufKB) +
		areaIBPerKB*float64(c.InputBufKB)
}

// ModeledAreaMM2 returns the analytic PE-array area estimate.
func (c Config) ModeledAreaMM2() float64 {
	return float64(c.NumPE) * c.PEAreaMM2()
}

// AreaMM2 returns the PE-array area: the published post-synthesis value for
// Table II presets, the analytic model otherwise.
func (c Config) AreaMM2() float64 {
	if c.SynthesizedAreaMM2 > 0 {
		return c.SynthesizedAreaMM2
	}
	return c.ModeledAreaMM2()
}
