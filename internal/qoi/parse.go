package qoi

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse builds an Expr from a textual formula over named fields, e.g.
//
//	Parse("sqrt(Vx^2+Vy^2+Vz^2)", []string{"Vx", "Vy", "Vz"})
//
// Grammar (usual precedence, left associative):
//
//	expr   := term (('+'|'-') term)*
//	term   := factor (('*'|'/') factor)*
//	factor := unary ('^' number)?
//	unary  := '-' unary | primary
//	primary:= number | field | 'sqrt' '(' expr ')' | '(' expr ')'
//
// Exponents must be non-negative integers or half-integers; a half-integer
// power x^(k+0.5) is lowered to sqrt(x^(2k+1)), the decomposition the paper
// uses for Equation (5)'s 3.5 exponent. The integer power a lowering makes
// may not exceed 64, so x^64 and x^31.5 are the largest accepted.
func Parse(src string, fields []string) (Expr, error) {
	p := &parser{src: src, fields: fields}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("qoi: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	return e, nil
}

// MustParse is Parse that panics; for tests and package-level QoI tables.
func MustParse(src string, fields []string) Expr {
	e, err := Parse(src, fields)
	if err != nil {
		panic(err)
	}
	return e
}

// ErrParse reports a formula syntax error.
var ErrParse = errors.New("qoi: parse error")

// unaryFuncs maps formula function names to node constructors. sqrt is the
// Table II basis; abs/exp/log are the derivable extensions of ext.go.
var unaryFuncs = map[string]func(Expr) Expr{
	"sqrt": func(x Expr) Expr { return Sqrt{X: x} },
	"abs":  func(x Expr) Expr { return Abs{X: x} },
	"exp":  func(x Expr) Expr { return Exp{X: x} },
	"log":  func(x Expr) Expr { return Log{X: x} },
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokNumber
	tokIdent
	tokOp // one of + - * / ^ ( )
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

type parser struct {
	src    string
	pos    int
	tok    token
	fields []string
}

func (p *parser) next() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	switch {
	case strings.ContainsRune("+-*/^()", rune(c)):
		p.pos++
		p.tok = token{kind: tokOp, text: string(c), pos: start}
	case c >= '0' && c <= '9' || c == '.':
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
				p.pos++
				continue
			}
			// exponent sign
			if (c == '+' || c == '-') && p.pos > start &&
				(p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E') {
				p.pos++
				continue
			}
			break
		}
		text := p.src[start:p.pos]
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			// Malformed number: surface as an operator-class token so the
			// parser reports it rather than silently treating it as EOF.
			p.tok = token{kind: tokOp, text: text, pos: start}
			return
		}
		p.tok = token{kind: tokNumber, text: text, num: v, pos: start}
	case unicode.IsLetter(rune(c)) || c == '_':
		for p.pos < len(p.src) {
			r := rune(p.src[p.pos])
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
				p.pos++
				continue
			}
			break
		}
		p.tok = token{kind: tokIdent, text: p.src[start:p.pos], pos: start}
	default:
		// Unknown character: an operator-class token the grammar rejects.
		p.pos++
		p.tok = token{kind: tokOp, text: string(c), pos: start}
	}
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	weights := []float64{1}
	terms := []Expr{left}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		p.next()
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		w := 1.0
		if op == "-" {
			w = -1
		}
		weights = append(weights, w)
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return Sum{Weights: weights, Terms: terms}, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if op == "*" {
			left = simplifyMul(left, right)
		} else {
			left = Div{Num: left, Den: right}
		}
	}
	return left, nil
}

// simplifyMul folds constant factors into Scale nodes so the tighter
// Theorem 8 bound applies instead of the generic product bound.
func simplifyMul(a, b Expr) Expr {
	if c, ok := a.(Const); ok {
		if c2, ok2 := b.(Const); ok2 {
			return Const{C: c.C * c2.C}
		}
		return Scale(c.C, b)
	}
	if c, ok := b.(Const); ok {
		return Scale(c.C, a)
	}
	return Mul{A: a, B: b}
}

func (p *parser) parseFactor() (Expr, error) {
	base, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.text == "^" {
		p.next()
		if p.tok.kind != tokNumber {
			return nil, fmt.Errorf("%w: exponent must be a number at offset %d", ErrParse, p.tok.pos)
		}
		exp := p.tok.num
		p.next()
		return lowerPower(base, exp)
	}
	return base, nil
}

// lowerPower converts x^e into the derivable basis: integer powers map to
// Pow, half-integer powers to sqrt(x^(2e)). The Pow exponent is checked
// against maxExponent while still a float: converting a larger one to int
// could overflow, and evaluating it would cost a loop step per unit.
func lowerPower(base Expr, exp float64) (Expr, error) {
	if exp < 0 {
		return nil, fmt.Errorf("%w: negative exponent %g (write 1/x^n instead)", ErrParse, exp)
	}
	if exp == 0 {
		return Const{C: 1}, nil
	}
	n, half := exp, false
	if exp != math.Trunc(exp) {
		if n, half = exp*2, true; n != math.Trunc(n) {
			return nil, fmt.Errorf("%w: exponent %g is not an integer or half-integer", ErrParse, exp)
		}
	}
	if n > maxExponent {
		return nil, fmt.Errorf("%w: exponent %g lowers to a power above %d", ErrParse, exp, maxExponent)
	}
	if half {
		return Sqrt{X: Pow{N: int(n), X: base}}, nil
	}
	return Pow{N: int(n), X: base}, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tokOp && p.tok.text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(Const); ok {
			return Const{C: -c.C}, nil
		}
		return Scale(-1, e), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokNumber:
		v := p.tok.num
		p.next()
		return Const{C: v}, nil
	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.next()
		if ctor, ok := unaryFuncs[strings.ToLower(name)]; ok {
			if p.tok.kind != tokOp || p.tok.text != "(" {
				return nil, fmt.Errorf("%w: %s requires parentheses at offset %d", ErrParse, name, p.tok.pos)
			}
			p.next()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.tok.kind != tokOp || p.tok.text != ")" {
				return nil, fmt.Errorf("%w: missing ) at offset %d", ErrParse, p.tok.pos)
			}
			p.next()
			return ctor(inner), nil
		}
		for i, f := range p.fields {
			if f == name {
				return Var{Index: i}, nil
			}
		}
		return nil, fmt.Errorf("%w: unknown field %q (have %v)", ErrParse, name, p.fields)
	case p.tok.kind == tokOp && p.tok.text == "(":
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokOp || p.tok.text != ")" {
			return nil, fmt.Errorf("%w: missing ) at offset %d", ErrParse, p.tok.pos)
		}
		p.next()
		return inner, nil
	default:
		return nil, fmt.Errorf("%w: unexpected %q at offset %d", ErrParse, p.tok.text, p.tok.pos)
	}
}
