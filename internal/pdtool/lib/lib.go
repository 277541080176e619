// Package lib models a 7nm-class standard-cell library: the per-cell area,
// capacitance, drive, delay, and power coefficients that the placement,
// timing and power engines of the flow simulator consume.
//
// Absolute values are calibrated to plausible 7nm magnitudes (input caps of
// a femtofarad, stage delays of a few picoseconds, leakage of nanowatts) so
// that the MAC designs close timing in the 0.7–1.1 ns periods the paper's
// freq parameter implies.
package lib

import "fmt"

// Kind enumerates the cell functions the netlist generator uses.
type Kind int

const (
	Inv Kind = iota
	Buf
	Nand2
	Nor2
	And2
	Or2
	Xor2
	Aoi22
	HalfAdder
	FullAdder
	DFF
	ClkBuf
	numKinds
)

func (k Kind) String() string {
	names := [...]string{"INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "AOI22", "HA", "FA", "DFF", "CLKBUF"}
	if int(k) < 0 || int(k) >= len(names) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return names[k]
}

// Cell holds the characterisation of one library cell at drive strength X1.
// Larger drive strengths are derived by Scaled.
type Cell struct {
	Kind Kind
	// Area in µm².
	Area float64
	// InCap is the input pin capacitance in fF (per pin).
	InCap float64
	// DriveRes is the output drive resistance in kΩ.
	DriveRes float64
	// Intrinsic is the load-independent delay in ps.
	Intrinsic float64
	// Leakage in nW.
	Leakage float64
	// InternalEnergy in fJ per output switching event.
	InternalEnergy float64
	// NumInputs is the number of signal input pins.
	NumInputs int
	// IsSequential marks registers (clock pin in addition to D).
	IsSequential bool
}

// Library is an immutable set of cells indexed by Kind, plus the wire
// technology parameters of the metal stack.
type Library struct {
	cells [numKinds]Cell

	// WireResPerUm is wire resistance in Ω/µm (mid-stack metal).
	WireResPerUm float64
	// WireCapPerUm is wire capacitance in fF/µm.
	WireCapPerUm float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// SetupTime is the register setup time in ps.
	SetupTime float64
	// ClkToQ is the register clock-to-output delay in ps.
	ClkToQ float64
	// RowHeight is the placement row height in µm.
	RowHeight float64
}

// Default7nm returns the library used by all benchmarks.
func Default7nm() *Library {
	l := &Library{
		WireResPerUm: 16.0, // Ω/µm
		WireCapPerUm: 0.20, // fF/µm
		Vdd:          0.70,
		SetupTime:    12,
		ClkToQ:       25,
		RowHeight:    0.27,
	}
	put := func(c Cell) { l.cells[c.Kind] = c }
	put(Cell{Kind: Inv, Area: 0.065, InCap: 0.7, DriveRes: 3.22, Intrinsic: 3.0, Leakage: 1.2, InternalEnergy: 0.08, NumInputs: 1})
	put(Cell{Kind: Buf, Area: 0.098, InCap: 0.8, DriveRes: 2.53, Intrinsic: 6.5, Leakage: 1.9, InternalEnergy: 0.14, NumInputs: 1})
	put(Cell{Kind: Nand2, Area: 0.085, InCap: 0.9, DriveRes: 3.68, Intrinsic: 4.2, Leakage: 1.6, InternalEnergy: 0.11, NumInputs: 2})
	put(Cell{Kind: Nor2, Area: 0.085, InCap: 0.9, DriveRes: 4.37, Intrinsic: 4.8, Leakage: 1.6, InternalEnergy: 0.11, NumInputs: 2})
	put(Cell{Kind: And2, Area: 0.111, InCap: 0.9, DriveRes: 3.45, Intrinsic: 6.8, Leakage: 2.1, InternalEnergy: 0.15, NumInputs: 2})
	put(Cell{Kind: Or2, Area: 0.111, InCap: 0.9, DriveRes: 3.68, Intrinsic: 7.1, Leakage: 2.1, InternalEnergy: 0.15, NumInputs: 2})
	put(Cell{Kind: Xor2, Area: 0.163, InCap: 1.3, DriveRes: 4.14, Intrinsic: 8.9, Leakage: 3.0, InternalEnergy: 0.24, NumInputs: 2})
	put(Cell{Kind: Aoi22, Area: 0.137, InCap: 1.0, DriveRes: 4.60, Intrinsic: 6.1, Leakage: 2.4, InternalEnergy: 0.18, NumInputs: 4})
	put(Cell{Kind: HalfAdder, Area: 0.241, InCap: 1.4, DriveRes: 4.14, Intrinsic: 10.5, Leakage: 4.2, InternalEnergy: 0.33, NumInputs: 2})
	put(Cell{Kind: FullAdder, Area: 0.384, InCap: 1.6, DriveRes: 4.37, Intrinsic: 14.0, Leakage: 6.8, InternalEnergy: 0.52, NumInputs: 3})
	put(Cell{Kind: DFF, Area: 0.462, InCap: 1.1, DriveRes: 2.99, Intrinsic: 0, Leakage: 8.5, InternalEnergy: 0.61, NumInputs: 1, IsSequential: true})
	put(Cell{Kind: ClkBuf, Area: 0.130, InCap: 1.0, DriveRes: 2.07, Intrinsic: 7.0, Leakage: 2.6, InternalEnergy: 0.19, NumInputs: 1})
	return l
}

// Cell returns the characterisation of kind k.
func (l *Library) Cell(k Kind) Cell {
	if int(k) < 0 || int(k) >= int(numKinds) {
		panic(fmt.Sprintf("lib: unknown cell kind %d", int(k)))
	}
	return l.cells[k]
}

// Kinds returns every kind defined by the library.
func (l *Library) Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Scaled returns the electrical view of cell k at drive strength size
// (size ≥ 1): drive resistance shrinks as 1/size while area, capacitance,
// leakage and internal energy grow linearly. This is the knob the timing
// optimiser turns when it upsizes critical cells.
func (l *Library) Scaled(k Kind, size float64) Cell {
	size = clampSize(size)
	c := l.Cell(k)
	c.Area *= size
	c.InCap *= size
	c.DriveRes /= size
	c.Leakage *= size
	c.InternalEnergy *= size
	return c
}

// InCap is Scaled(k, size).InCap without building the whole view.
func (l *Library) InCap(k Kind, size float64) float64 {
	return l.cells[k].InCap * clampSize(size)
}

// DriveRes is Scaled(k, size).DriveRes without building the whole view.
func (l *Library) DriveRes(k Kind, size float64) float64 {
	return l.cells[k].DriveRes / clampSize(size)
}

// Area is Scaled(k, size).Area without building the whole view.
func (l *Library) Area(k Kind, size float64) float64 {
	return l.cells[k].Area * clampSize(size)
}

// clampSize floors a drive strength at 1: a cell never shrinks below X1.
func clampSize(size float64) float64 {
	if size < 1 {
		return 1
	}
	return size
}

// WireDelayPS returns the Elmore delay in ps of a wire of length µm driving
// load fF with driver resistance kΩ: R_drv·(C_wire + C_load) + R_wire·
// (C_wire/2 + C_load). Units: kΩ·fF = ps.
func (l *Library) WireDelayPS(driveResKOhm, lengthUm, loadFF float64) float64 {
	cw := l.WireCapPerUm * lengthUm
	rw := l.WireResPerUm * lengthUm / 1000.0 // kΩ
	return driveResKOhm*(cw+loadFF) + rw*(cw/2+loadFF)
}
