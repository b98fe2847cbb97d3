package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"testing"

	hypo "hypodatalog"
)

// The structs the hand-encoded lines replace, kept as the reference
// encoding/json output those lines must equal.
type askResponse struct {
	Result      bool   `json:"result"`
	DataVersion uint64 `json:"dataVersion"`
}

type bindingLine struct {
	Binding hypo.Binding `json:"binding"`
}

type doneLine struct {
	Done        bool   `json:"done"`
	Count       int    `json:"count"`
	DataVersion uint64 `json:"dataVersion"`
}

// encodeLine is json.Encoder's output for v: what the server wrote
// before its hot lines were appended by hand.
func encodeLine(t testing.TB, v any) string {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkLines compares each hand-encoded line with encoding/json's.
func checkLines(t testing.TB, b hypo.Binding, count int, version uint64, result bool) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"binding", string(appendBindingLine(nil, b)), encodeLine(t, bindingLine{Binding: b})},
		{"done", string(appendDoneLine(nil, count, version)), encodeLine(t, doneLine{Done: true, Count: count, DataVersion: version})},
		{"ask", string(appendAskResponse(nil, result, version)), encodeLine(t, askResponse{Result: result, DataVersion: version})},
	} {
		if c.got != c.want {
			t.Errorf("%s line:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}

// FuzzResponseLines: the binding, done and ask lines are byte-identical
// to encoding/json's, for any keys and values — invalid UTF-8, HTML
// characters, control bytes and the line separators it escapes included.
func FuzzResponseLines(f *testing.F) {
	f.Add("X", "tony", "Y", "cs101", 2, uint64(7), true)
	f.Add("", "", "", "", 0, uint64(0), false)
	f.Add("S", "<a&b>", "C", "\u2028\u2029", -1, uint64(math.MaxUint64), true)
	f.Add("\xff\xfe", "bad\xc3", "k\"\\", "\x00\x1f\x7f", math.MaxInt, uint64(1), false)
	f.Add("é", "日本", "\t\n\r", "\u00e9\u0301", math.MinInt, uint64(1<<40), true)
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string, count int, version uint64, result bool) {
		checkLines(t, hypo.Binding{k1: v1, k2: v2}, count, version, result)
		checkLines(t, hypo.Binding{k1: v1}, count, version, result)
	})
}

// TestResponseLineShapes covers the bindings a fuzzed pair of keys
// cannot make: none (a ground query's one answer), a nil map, and more
// keys than appendBindingLine sorts on its stack.
func TestResponseLineShapes(t *testing.T) {
	many := hypo.Binding{}
	for _, k := range []string{"Z", "A", "M", "B", "Y", "C", "X", "D", "W", "E", "a", "_"} {
		many[k] = "v" + k
	}
	for _, b := range []hypo.Binding{{}, nil, many} {
		checkLines(t, b, 3, 4, true)
	}
}

// TestAccessLogLine: the typed access-log attributes print exactly what
// the untyped slog.Info call they replace printed, under the JSON and the
// text handler, for a query route and an admin route.
func TestAccessLogLine(t *testing.T) {
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	handlers := map[string]func(*bytes.Buffer) slog.Handler{
		"json": func(b *bytes.Buffer) slog.Handler {
			return slog.NewJSONHandler(b, &slog.HandlerOptions{ReplaceAttr: noTime})
		},
		"text": func(b *bytes.Buffer) slog.Handler {
			return slog.NewTextHandler(b, &slog.HandlerOptions{ReplaceAttr: noTime})
		},
	}
	ri := &reqInfo{
		endpoint: "askunder", program: "uni", query: `grad(S)[add: take(S, "c 1")]`,
		outcome: "ok", bindings: 3, dataVersion: 12, cache: hypo.CacheMiss, minVersion: 9,
		stats: hypo.Stats{Goals: 41, Enumerated: 7, TableHits: 5, MaxDepth: 6, Materialisations: 2, DerivedModels: 1},
	}
	s := &Server{cfg: Config{Role: "replica"}}
	const status, elapsed = 200, 1.234
	for name, h := range handlers {
		for _, query := range []bool{true, false} {
			// The attributes as logged and typed before.
			old := []any{
				"endpoint", ri.endpoint,
				"program", ri.program,
				"status", status,
				"outcome", ri.outcome,
				"elapsed_ms", elapsed,
			}
			if query {
				old = append(old,
					"query", ri.query,
					"bindings", ri.bindings,
					"goals", ri.stats.Goals,
					"enumerated", ri.stats.Enumerated,
					"table_hits", ri.stats.TableHits,
					"max_depth", ri.stats.MaxDepth,
					"materialisations", ri.stats.Materialisations,
					"derived_models", ri.stats.DerivedModels,
					"data_version", ri.dataVersion,
					"cache", ri.cache.String(),
					"role", s.cfg.Role,
					"min_version", ri.minVersion,
				)
			}
			var want, got bytes.Buffer
			slog.New(h(&want)).Info("request", old...)
			var a [17]slog.Attr
			slog.New(h(&got)).LogAttrs(context.Background(), slog.LevelInfo, "request", s.accessAttrs(&a, ri, query, status, elapsed)...)
			if got.String() != want.String() {
				t.Errorf("%s handler, query route %v:\n got %s\nwant %s", name, query, got.String(), want.String())
			}
		}
	}
}
