package qoi

import "math"

// library.go prebuilds the QoIs the paper evaluates: the six GE CFD
// quantities of Equations (1)–(6) and the S3D molar-concentration products.

// Physical constants of the GE case study (§III-A).
const (
	GasConstantR = 287.1    // specific gas constant R
	Gamma        = 1.4      // heat capacity ratio γ
	MachExponent = 3.5      // mi in Equation (5)
	MuRef        = 1.716e-5 // μr, reference viscosity
	TRef         = 273.15   // Tr, reference temperature
	Sutherland   = 110.4    // S, Sutherland constant
)

// GE field indices (the order datagen.GE produces them).
const (
	GEVx = iota
	GEVy
	GEVz
	GEP
	GED
	GENumFields
)

// QoI names a derivable quantity of interest.
type QoI struct {
	Name string
	Expr Expr
}

// TotalVelocity builds Equation (1), √(Vx²+Vy²+Vz²), over the given three
// variable indices. Used for GE, NYX, and Hurricane.
func TotalVelocity(vx, vy, vz int) QoI {
	return QoI{
		Name: "VTOT",
		Expr: Sqrt{X: Add(
			Pow{N: 2, X: Var{vx}},
			Pow{N: 2, X: Var{vy}},
			Pow{N: 2, X: Var{vz}},
		)},
	}
}

// Temperature builds Equation (2), T = P/(D·R).
func Temperature() QoI {
	return QoI{
		Name: "T",
		Expr: Div{Num: Var{GEP}, Den: Scale(GasConstantR, Var{GED})},
	}
}

// SoundSpeed builds Equation (3), C = √(γ·R·T).
func SoundSpeed() QoI {
	return QoI{
		Name: "C",
		Expr: Sqrt{X: Scale(Gamma*GasConstantR, Temperature().Expr)},
	}
}

// MachNumber builds Equation (4), Mach = Vtotal/C.
func MachNumber() QoI {
	return QoI{
		Name: "Mach",
		Expr: Div{Num: TotalVelocity(GEVx, GEVy, GEVz).Expr, Den: SoundSpeed().Expr},
	}
}

// TotalPressure builds Equation (5), PT = P·(1 + γ/2·Mach²)^3.5. The 3.5
// power decomposes into the derivable basis as √((1 + γ/2·Mach²)⁷) — the
// square-root-of-polynomial composition the paper walks through in §III-A —
// with the polynomial a Sum of the constant 1 and γ/2·Mach² (Theorems 1, 7
// and 8).
func TotalPressure() QoI {
	base := Sum{Weights: []float64{1, Gamma / 2}, Terms: []Expr{Const{1}, Pow{N: 2, X: MachNumber().Expr}}}
	return QoI{
		Name: "PT",
		Expr: Mul{A: Var{GEP}, B: Sqrt{X: Pow{N: 7, X: base}}},
	}
}

// Viscosity builds Equation (6), μ = μr·(T/Tr)^1.5·(Tr+S)/(T+S). The 1.5
// power decomposes as √(T³)/Tr^1.5, and 1/(T+S) is the radical basis
// function of Theorem 3.
func Viscosity() QoI {
	coef := MuRef * (TRef + Sutherland) / (TRef * math.Sqrt(TRef))
	t := Temperature().Expr
	return QoI{
		Name: "mu",
		Expr: Scale(coef, Mul{
			A: Sqrt{X: Pow{N: 3, X: t}},
			B: Radical{C: Sutherland, X: t},
		}),
	}
}

// GEQoIs returns the paper's six GE quantities, Equations (1)–(6), in order.
func GEQoIs() []QoI {
	return []QoI{
		TotalVelocity(GEVx, GEVy, GEVz),
		Temperature(),
		SoundSpeed(),
		MachNumber(),
		TotalPressure(),
		Viscosity(),
	}
}

// S3D species indices (the subset named in §VI-A).
const (
	S3DH2 = 0 // H2
	S3DO2 = 1 // O2
	S3DH  = 3 // H
	S3DO  = 4 // O
	S3DOH = 5 // OH
)

// S3DProducts returns the four molar-concentration multiplications the
// paper evaluates (two reactions: H + O2 ⇌ O + OH and H2 + O ⇌ H + OH).
func S3DProducts() []QoI {
	mk := func(name string, a, b int) QoI {
		return QoI{Name: name, Expr: Mul{A: Var{a}, B: Var{b}}}
	}
	return []QoI{
		mk("x1*x3", S3DO2, S3DH),
		mk("x4*x5", S3DO, S3DOH),
		mk("x0*x4", S3DH2, S3DO),
		mk("x3*x5", S3DH, S3DOH),
	}
}
