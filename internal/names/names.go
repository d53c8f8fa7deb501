// Package names generates the synthetic domain-name population for the
// registry simulator and provides the lexical analyses (keyword count,
// dictionary-word count) the paper applies to re-registered names in §4.4.
//
// Name composition drives perceived value: short names built from commercial
// keywords and dictionary words attract backorders from drop-catch services,
// while long random-letter names mostly expire unnoticed. The generator
// exposes that ground-truth value score so agent behaviour can be conditioned
// on it, but the measurement pipeline only ever sees the name itself.
//
// A Generator never repeats a label. The labels it has returned are kept as
// bytes in one append-only arena, indexed by an open-addressed table of
// 64-bit slots, each a fragment of the label's hash beside its arena offset:
// neither holds a pointer, so the collector never scans the set and no
// returned label is pinned by it. The set is exact: a fragment match is only
// a candidate, confirmed byte for byte against the arena, so a repeat is
// always caught and a fresh label never refused — the stream is the one a
// map of every label would give.
package names

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"strconv"
	"strings"
)

// Errors returned by Validate.
var (
	ErrEmpty      = errors.New("names: empty label")
	ErrTooLong    = errors.New("names: label longer than 63 octets")
	ErrBadChar    = errors.New("names: label contains a character outside [a-z0-9-]")
	ErrHyphenEdge = errors.New("names: label starts or ends with a hyphen")
)

// isLDH marks the bytes an LDH label may hold: a-z, 0-9 and '-'.
var isLDH = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
	}
	return t
}()

// Validate checks that label is a well-formed LDH ("letters, digits,
// hyphen") DNS label as registries enforce for second-level names.
func Validate(label string) error {
	if label == "" {
		return ErrEmpty
	}
	if len(label) > 63 {
		return fmt.Errorf("%w: %q", ErrTooLong, label)
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return fmt.Errorf("%w: %q", ErrHyphenEdge, label)
	}
	for i := 0; i < len(label); i++ {
		if !isLDH[label[i]] {
			return fmt.Errorf("%w: %q", ErrBadChar, label)
		}
	}
	return nil
}

// Label returns the second-level label of a fully qualified name
// ("example.com" → "example").
func Label(fqdn string) string {
	if i := strings.IndexByte(fqdn, '.'); i >= 0 {
		return fqdn[:i]
	}
	return fqdn
}

// matcher performs greedy longest-match segmentation against a word set.
type matcher struct {
	words  map[string]bool
	maxLen int
	minLen int
}

func newMatcher(list []string) *matcher {
	m := &matcher{words: make(map[string]bool, len(list)), minLen: 1 << 30}
	for _, w := range list {
		m.words[w] = true
		m.maxLen, m.minLen = max(m.maxLen, len(w)), min(m.minLen, len(w))
	}
	return m
}

// count returns the number of non-overlapping words found in s by greedy
// longest-match scanning, the same approximation the paper applies to count
// keywords and English dictionary words in re-registered names.
func (m *matcher) count(s string) int {
	n := 0
	for i := 0; i < len(s); {
		matched := 0
		for l := min(m.maxLen, len(s)-i); l >= m.minLen; l-- {
			if m.words[s[i:i+l]] {
				matched = l
				break
			}
		}
		if matched > 0 {
			n++
			i += matched
		} else {
			i++
		}
	}
	return n
}

var (
	keywordMatcher    = newMatcher(keywords)
	dictionaryMatcher = newMatcher(dictionary)
)

// KeywordCount returns the number of commercial keywords contained in the
// second-level label of name.
func KeywordCount(name string) int { return keywordMatcher.count(Label(name)) }

// DictionaryCount returns the number of English dictionary words contained
// in the second-level label of name.
func DictionaryCount(name string) int { return dictionaryMatcher.count(Label(name)) }

// Class describes how a generated label was composed. The workload model
// uses it to assign ground-truth desirability.
type Class uint8

// Composition classes, roughly ordered by decreasing market value.
const (
	ClassKeywordPair Class = iota // two commercial keywords ("cryptodeals")
	ClassDictPair                 // two dictionary words ("silverbrook")
	ClassKeywordDict              // keyword + dictionary word ("shopriver")
	ClassShortBrand               // short pronounceable coinage ("zavodo")
	ClassWordNumber               // word + digits ("casino88")
	ClassHyphenated               // hyphen-joined words ("best-loans")
	ClassLongRandom               // long low-value letter soup
	numClasses
)

var classNames = [numClasses]string{"keyword-pair", "dict-pair", "keyword-dict",
	"short-brand", "word-number", "hyphenated", "long-random"}

// String names the class for logs and tests.
func (c Class) String() string {
	if c < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Generated is one synthetic label together with its ground-truth value
// score in [0, 1]. Value is what backorder demand is conditioned on; it is
// hidden from the measurement side of the system.
type Generated struct {
	Label string
	Class Class
	Value float64
}

// Generator produces deterministic streams of unique labels. It is not safe
// for concurrent use; give each goroutine its own Generator.
type Generator struct {
	rng  *rand.Rand
	seen labelSet
	// classWeights is the cumulative distribution over composition classes.
	classCum [numClasses]float64
}

// NewGenerator returns a Generator drawing from rng. The class mix is fixed
// to a distribution that makes valuable names a small minority, matching the
// observation that only ~10 % of deleted domains attract any re-registration.
func NewGenerator(rng *rand.Rand) *Generator {
	g := &Generator{rng: rng, seen: labelSet{seed: maphash.MakeSeed()}}
	weights := [numClasses]float64{
		ClassKeywordPair: 0.06,
		ClassDictPair:    0.08,
		ClassKeywordDict: 0.08,
		ClassShortBrand:  0.10,
		ClassWordNumber:  0.10,
		ClassHyphenated:  0.08,
		ClassLongRandom:  0.50,
	}
	sum := 0.0
	for i, w := range weights {
		sum += w
		g.classCum[i] = sum
	}
	return g
}

const consonants = "bcdfghjklmnpqrstvwz"
const vowels = "aeiou"

func (g *Generator) pick(list []string) string { return list[g.rng.Intn(len(list))] }

func (g *Generator) brand(syllables int) string {
	var b strings.Builder
	for i := 0; i < syllables; i++ {
		b.WriteByte(consonants[g.rng.Intn(len(consonants))])
		b.WriteByte(vowels[g.rng.Intn(len(vowels))])
	}
	return b.String()
}

// random is n random letters and digits, n at most 63 (a label's limit);
// they are spelled on the stack, so the string is the one allocation.
func (g *Generator) random(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var buf [63]byte
	b := buf[:n]
	for i := range b {
		b[i] = alphabet[g.rng.Intn(len(alphabet))]
	}
	// LDH labels may not start with a hyphen; the alphabet has none, but a
	// leading digit is fine for registries.
	return string(b)
}

// baseValue is each class's desirability before length and jitter.
var baseValue = [numClasses]float64{
	ClassKeywordPair: 0.80,
	ClassDictPair:    0.70,
	ClassKeywordDict: 0.72,
	ClassShortBrand:  0.55,
	ClassWordNumber:  0.40,
	ClassHyphenated:  0.25,
	ClassLongRandom:  0.04,
}

// value maps a class and label length to a ground-truth desirability score.
func value(c Class, label string, rng *rand.Rand) float64 {
	// Shorter is better: up to +0.15 for very short labels.
	shortBonus := 0.15 * (1.0 - float64(min(len(label), 20))/20.0)
	jitter := rng.Float64()*0.10 - 0.05
	return min(max(baseValue[c]+shortBonus+jitter, 0), 1)
}

// Next generates a fresh unique label. It never returns an invalid label and
// never repeats one within a Generator's lifetime.
func (g *Generator) Next() Generated {
	for {
		c := g.class()
		label := g.compose(c)
		if Validate(label) != nil || !g.seen.add(label) {
			continue
		}
		return Generated{Label: label, Class: c, Value: value(c, label, g.rng)}
	}
}

// labelSet is the set of labels a Generator has returned (see the package
// doc). arena holds each label as a length byte and its bytes. A used slot
// is the label's fragment (its hash's top 32 bits, the lowest set) above its
// arena offset, so at most 4 GiB of labels; the fragment's other bits pick
// the home slot, probed linearly, so a grow re-reads no label.
type labelSet struct {
	seed  maphash.Seed
	slots []uint64 // power-of-two length, at most 3/4 used
	n     int      // used slots
	arena []byte
}

// add inserts label, valid (so at most 63 bytes), and reports whether it
// was absent.
func (s *labelSet) add(label string) bool {
	if s.n >= len(s.slots)*3/4 {
		s.grow()
	}
	frag := maphash.String(s.seed, label)>>32 | 1
	mask := len(s.slots) - 1
	for i := int(frag>>1) & mask; ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v == 0:
			s.slots[i] = frag<<32 | uint64(len(s.arena))
			s.arena = append(append(s.arena, byte(len(label))), label...)
			s.n++
			return true
		case v>>32 == frag && string(s.label(v)) == label:
			return false
		}
	}
}

// label is the arena bytes of slot v's label.
func (s *labelSet) label(v uint64) []byte {
	off := uint32(v)
	return s.arena[off+1 : off+1+uint32(s.arena[off])]
}

// grow doubles the table, re-homing each slot by its fragment.
func (s *labelSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), 1024))
	mask := len(s.slots) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := int(v>>33) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = v
	}
}

func (g *Generator) class() Class {
	r := g.rng.Float64() * g.classCum[numClasses-1]
	for i := Class(0); i < numClasses; i++ {
		if r <= g.classCum[i] {
			return i
		}
	}
	return ClassLongRandom
}

func (g *Generator) compose(c Class) string {
	switch c {
	case ClassKeywordPair:
		return g.pick(keywords) + g.pick(keywords)
	case ClassDictPair:
		return g.pick(dictionary) + g.pick(dictionary)
	case ClassKeywordDict:
		if g.rng.Intn(2) == 0 {
			return g.pick(keywords) + g.pick(dictionary)
		}
		return g.pick(dictionary) + g.pick(keywords)
	case ClassShortBrand:
		return g.brand(2 + g.rng.Intn(2))
	case ClassWordNumber:
		w := g.pick(keywords)
		if g.rng.Intn(2) == 0 {
			w = g.pick(dictionary)
		}
		return w + strconv.Itoa(g.rng.Intn(1000))
	case ClassHyphenated:
		return g.pick(dictionary) + "-" + g.pick(keywords)
	default:
		return g.random(10 + g.rng.Intn(14))
	}
}
