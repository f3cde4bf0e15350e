package fuzzy

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Rule is a parsed fuzzy if-then rule: an antecedent expression over input
// terms, an output term, and a weight (the paper assigns uniform weights).
type Rule struct {
	Antecedent Expr
	OutputTerm string
	Weight     float64
	// Text preserves the source for diagnostics.
	Text string

	outputVar string
}

// Expr is a fuzzy antecedent expression evaluated against fuzzified inputs.
type Expr interface {
	// strength returns the firing strength given per-variable term grades.
	strength(grades map[string]map[string]float64) float64
	// vars appends the variable names referenced by the expression.
	vars(into map[string]bool)
	// String renders the expression in the rule language.
	String() string
}

// cond is "variable IS term".
type cond struct{ variable, term string }

func (c cond) strength(g map[string]map[string]float64) float64 {
	return g[c.variable][c.term]
}
func (c cond) vars(into map[string]bool) { into[c.variable] = true }
func (c cond) String() string            { return c.variable + " IS " + c.term }

// notExpr is fuzzy complement 1−x.
type notExpr struct{ inner Expr }

func (n notExpr) strength(g map[string]map[string]float64) float64 {
	return 1 - n.inner.strength(g)
}
func (n notExpr) vars(into map[string]bool) { n.inner.vars(into) }
func (n notExpr) String() string            { return "NOT (" + n.inner.String() + ")" }

// andExpr is the min t-norm over its operands.
type andExpr struct{ kids []Expr }

func (a andExpr) strength(g map[string]map[string]float64) float64 {
	s := 1.0
	for i, k := range a.kids {
		if v := k.strength(g); i == 0 || v < s {
			s = v
		}
	}
	return s
}
func (a andExpr) vars(into map[string]bool) {
	for _, k := range a.kids {
		k.vars(into)
	}
}
func (a andExpr) String() string { return joinExprs(a.kids, " AND ") }

// orExpr is the max s-norm over its operands.
type orExpr struct{ kids []Expr }

func (o orExpr) strength(g map[string]map[string]float64) float64 {
	var s float64
	for _, k := range o.kids {
		if v := k.strength(g); v > s {
			s = v
		}
	}
	return s
}
func (o orExpr) vars(into map[string]bool) {
	for _, k := range o.kids {
		k.vars(into)
	}
}
func (o orExpr) String() string { return joinExprs(o.kids, " OR ") }

func joinExprs(kids []Expr, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}

// ---------------------------------------------------------------------------
// Rule language parser
//
//	rule    := IF expr THEN ident IS ident [WEIGHT number]
//	expr    := and { OR and }
//	and     := unary { AND unary }
//	unary   := NOT unary | "(" expr ")" | ident IS ident
//
// Keywords are case-insensitive; identifiers are letters, digits, '_' and
// '-' (so "Property_Holdings" and "invst-vol" both work).

// ParseRule parses one rule in the language above.
func ParseRule(text string) (Rule, error) {
	p := &parser{src: text}
	p.next()
	if err := p.expectKeyword("IF"); err != nil {
		return Rule{}, err
	}
	expr, err := p.parseExpr()
	if err != nil {
		return Rule{}, err
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return Rule{}, err
	}
	outVar, err := p.expectIdent()
	if err != nil {
		return Rule{}, err
	}
	if err := p.expectKeyword("IS"); err != nil {
		return Rule{}, err
	}
	outTerm, err := p.expectIdent()
	if err != nil {
		return Rule{}, err
	}
	weight := 1.0
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "WEIGHT") {
		p.next()
		if p.tok.kind != tokNumber {
			return Rule{}, p.errorf("expected a number after WEIGHT")
		}
		w, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil || w < 0 || w > 1 {
			return Rule{}, p.errorf("rule weight %q must be in [0, 1]", p.tok.text)
		}
		weight = w
		p.next()
	}
	if p.tok.kind != tokEOF {
		return Rule{}, p.errorf("unexpected trailing input %q", p.tok.text)
	}
	// The consequent's variable is implicit in System (single output); keep
	// the parsed variable name in Text and validate in System.AddRule.
	return Rule{
		Antecedent: expr,
		OutputTerm: outTerm,
		Weight:     weight,
		Text:       text,
		outputVar:  outVar,
	}, nil
}

// ParseRules parses one rule per non-empty, non-comment ('#') line.
func ParseRules(text string) ([]Rule, error) {
	var out []Rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: line %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src string
	pos int
	tok token
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("fuzzy: parse %q at offset %d: %s", p.src, p.tok.pos, fmt.Sprintf(format, args...))
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
	case c == '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case c >= '0' && c <= '9' || c == '.':
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		p.tok = token{tokNumber, p.src[start:p.pos], start}
	case isIdentRune(rune(c)):
		for p.pos < len(p.src) && isIdentRune(rune(p.src[p.pos])) {
			p.pos++
		}
		p.tok = token{tokIdent, p.src[start:p.pos], start}
	default:
		// Lex the offending byte as a lone identifier; the grammar will
		// reject it with a positioned error.
		p.pos++
		p.tok = token{tokIdent, string(c), start}
	}
}

func isIdentRune(r rune) bool {
	// '.' admits qualified feature names like "aux.Seniority". Numbers are
	// lexed before identifiers, so ".5" still parses as a number.
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || !strings.EqualFold(p.tok.text, kw) {
		return p.errorf("expected %s, found %q", kw, p.tok.text)
	}
	p.next()
	return nil
}

func (p *parser) keyword(kw string) bool {
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw) {
		p.next()
		return true
	}
	return false
}

// reserved words may not be used as identifiers.
var reserved = map[string]bool{
	"IF": true, "THEN": true, "IS": true, "AND": true, "OR": true,
	"NOT": true, "WEIGHT": true,
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errorf("expected an identifier, found %q", p.tok.text)
	}
	if reserved[strings.ToUpper(p.tok.text)] {
		return "", p.errorf("%q is a reserved word", p.tok.text)
	}
	s := p.tok.text
	p.next()
	return s, nil
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Expr{left}
	for p.keyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return orExpr{kids}, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []Expr{left}
	for p.keyword("AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return andExpr{kids}, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.keyword("NOT") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner}, nil
	}
	if p.tok.kind == tokLParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errorf("expected ')', found %q", p.tok.text)
		}
		p.next()
		return e, nil
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IS"); err != nil {
		return nil, err
	}
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return cond{v, t}, nil
}
