package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
)

// oracleMarshal is the canonicaliser canon shipped before its one-pass
// form: encode with encoding/json, decode the bytes into a generic tree
// with UseNumber, and write the tree back with sorted keys. Marshal must
// reproduce its bytes and its errors exactly, or every cache key moves.
func oracleMarshal(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("canon: re-parse: %w", err)
	}
	var buf bytes.Buffer
	if err := write(&buf, tree); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func oracleHash(v any) (string, error) {
	b, err := oracleMarshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// write emits one canonicalized JSON value. tree only contains the types
// json.Decoder produces: nil, bool, string, json.Number, []any and
// map[string]any.
func write(buf *bytes.Buffer, tree any) error {
	switch v := tree.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if v {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(v.String())
	case string:
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(b)
	case []any:
		buf.WriteByte('[')
		for i, e := range v {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := write(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := write(buf, v[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("canon: unexpected decoded type %T", tree)
	}
	return nil
}

// checkAgainstOracle fails t unless Marshal and Hash agree with the oracle
// on v: the same bytes and hash, or the same error.
func checkAgainstOracle(t *testing.T, v any) {
	t.Helper()
	got, err := Marshal(v)
	want, werr := oracleMarshal(v)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%.200s):\n got %.200q (%v)\nwant %.200q (%v)", fmt.Sprint(v), got, err, want, werr)
	}
	h, err := Hash(v)
	wh, werr := oracleHash(v)
	if fmt.Sprint(err) != fmt.Sprint(werr) || h != wh {
		t.Fatalf("Hash(%.200s) = %s (%v), want %s (%v)", fmt.Sprint(v), h, err, wh, werr)
	}
}

func TestMarshalSortsKeys(t *testing.T) {
	got, err := Marshal(map[string]any{"b": 1, "a": 2, "c": map[string]int{"z": 1, "y": 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":2,"b":1,"c":{"y":2,"z":1}}`
	if string(got) != want {
		t.Fatalf("Marshal = %s, want %s", got, want)
	}
}

// A struct and the equivalent map must canonicalize identically: the cache
// key must not depend on whether the value went through a struct or the
// generic JSON tree, nor on struct field declaration order.
func TestMarshalStructEqualsMap(t *testing.T) {
	type s struct {
		Zeta  int    `json:"zeta"`
		Alpha string `json:"alpha"`
	}
	a, err := Marshal(s{Zeta: 3, Alpha: "x"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(map[string]any{"alpha": "x", "zeta": 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("struct %s != map %s", a, b)
	}
	if want := `{"alpha":"x","zeta":3}`; string(a) != want {
		t.Fatalf("Marshal = %s, want %s", a, want)
	}
}

// rawJSON lets a test feed pre-encoded JSON through Marshal.
type rawJSON string

func (r rawJSON) MarshalJSON() ([]byte, error) { return []byte(r), nil }

// Numbers must survive canonicalization verbatim — no float64 round trip.
func TestMarshalNumberFidelity(t *testing.T) {
	in := `{"big":123456789012345678901,"exp":1e21,"frac":0.1,"neg":-0.0625}`
	got, err := Marshal(rawJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != in {
		t.Fatalf("canonical form %s drifted from %s", got, in)
	}
}

func TestMarshalArraysAndScalars(t *testing.T) {
	got, err := Marshal([]any{nil, true, false, "s", []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `[null,true,false,"s",[1,2]]`; string(got) != want {
		t.Fatalf("Marshal = %s, want %s", got, want)
	}
}

func TestHashStableAndDistinct(t *testing.T) {
	h1, err := Hash(map[string]int{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(map[string]int{"b": 2, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("equal values hash differently: %s vs %s", h1, h2)
	}
	h3, err := Hash(map[string]int{"a": 1, "b": 3})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Fatal("different values collided")
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", h1)
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Fatal("expected error for channel")
	}
}

// classSeed has the shape of the resolved request internal/serve hashes
// into a job ID.
type classSeed struct {
	Type       string                   `json:"type"`
	Workload   string                   `json:"workload"`
	Config     repro.Config             `json:"config"`
	Rates      []int                    `json:"rates,omitempty"`
	Coverage   *repro.CoverageOptions   `json:"coverage,omitempty"`
	TileDeath  *repro.TileDeathOptions  `json:"tileDeath,omitempty"`
	Interleave *repro.InterleaveOptions `json:"interleave,omitempty"`
}

// oracleInputs are JSON texts on which the one-pass canonicaliser takes
// each of its paths: struct-ordered and map-ordered objects, escapes and
// non-ASCII bytes in keys and values, keys repeated directly and through
// an escape, and numbers that a float64 round trip would change.
var oracleInputs = []string{
	`{}`, `[]`, `0`, `"s"`, `null`, `[[],{},[{}]]`,
	`{"b":1,"a":{"d":[1,{"z":0,"y":1}],"c":true}}`,
	`{"\u0062":1,"a":2}`,
	`{"k\u00e9y":"v\u00e9","key":"\u2028\u2029","\ud83d\ude00":"\ud800"}`,
	`{"a":"\"quoted\"\\\/\b\f\n\r\t"}`,
	`{"html":"<a href=\"x\">&amp;</a>","<":">"}`,
	"{\"raw\":\"\u00e9\u2028\u2029\",\"\u00e9\":1,\"e\":2}",
	`{"b":1,"a":2,"b":3}`,
	`{"a":{"x":1},"a":2}`,
	`{"a":1,"\u0061":2,"b":[{"c":1,"c":{"d":2,"d":3}}]}`,
	"{\"\xff\":\"\xfe\",\"\xfd\":1,\"v\":\"a\xc3\"}",
	`{"big":123456789012345678901,"exp":1e21,"e2":1E+2,"neg":-0,"frac":0.1,"small":-1.5e-300}`,
	`[123456789012345678901,1e21,-0.0625,0,true,false,null,""]`,
}

func TestMarshalMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs {
		checkAgainstOracle(t, rawJSON(in))
	}
	values := []any{
		repro.QuickConfig(), repro.DefaultConfig(),
		map[string]any{"z": "\xff<&>", "a": []any{1.5, "\u2028", nil}},
		struct {
			B string `json:"b"`
			A string `json:"a"`
		}{"\xff", "é"},
	}
	for _, v := range values {
		checkAgainstOracle(t, v)
	}
}

// A value nested past encoding/json's depth limit encodes but cannot be
// re-parsed; the one-pass form must refuse it with the oracle's error.
func TestMarshalDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		var arr, obj any = 1, 1
		for i := 0; i < depth; i++ {
			arr = []any{arr}
			obj = map[string]any{"k": obj}
		}
		checkAgainstOracle(t, arr)
		checkAgainstOracle(t, obj)
	}
}

// Concurrent callers share the pooled scratch; each must get its own
// value's hash.
func TestHashConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := map[string]int{"g": g, "i": i}
				h, err := Hash(v)
				want, werr := oracleHash(v)
				if err != nil || werr != nil || h != want {
					t.Errorf("Hash(%v) = %s (%v), want %s (%v)", v, h, err, want, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzCanonMarshal feeds arbitrary JSON text through a MarshalJSON value:
// Marshal and Hash must return the oracle's bytes, hash and error, and
// never panic.
func FuzzCanonMarshal(f *testing.F) {
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	quick := repro.QuickConfig()
	seed(quick)
	seed(repro.DefaultConfig())
	for _, c := range []classSeed{
		{Type: "run", Workload: "uniform", Config: quick},
		{Type: "sweep", Workload: "uniform", Config: quick, Rates: []int{0, 125, 250, 500, 1000}},
		{Type: "compare", Workload: "uniform", Config: quick},
		{Type: "coverage", Workload: "uniform", Config: quick,
			Coverage: &repro.CoverageOptions{MaxSlotsPerType: 1, DoubleFaultSamples: 2}},
		{Type: "tile-death", Workload: "uniform", Config: quick,
			TileDeath: &repro.TileDeathOptions{MaxSlotsPerType: 1}},
		{Type: "interleave", Workload: repro.InterleaveWorkload, Config: quick,
			Interleave: &repro.InterleaveOptions{FaultBudget: 1}},
		{Type: "profile", Workload: "uniform", Config: quick},
	} {
		seed(c)
	}
	for _, in := range oracleInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstOracle(t, rawJSON(in))
	})
}
