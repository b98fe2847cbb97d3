package live

import (
	"testing"

	"hypodatalog/internal/ast"
)

// FuzzWALReplay throws arbitrary bytes at the WAL parser. Whatever the
// input, parseWAL must not panic, must report a valid prefix no longer
// than the input, and must hand back strictly sequential record versions
// — the invariants recovery relies on to never replay garbage.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("HDLWAL\x01"))
	f.Add(encodeHeader(0))
	f.Add(encodeHeader(1 << 40))
	one := append(encodeHeader(0), encodeRecord(1, []Mutation{
		{Op: OpAssert, Atom: ast.Atom{Pred: "edge", Args: []ast.Term{ast.Const("a"), ast.Const("b")}}},
	})...)
	f.Add(one)
	f.Add(append(append([]byte(nil), one...), encodeRecord(2, []Mutation{
		{Op: OpRetract, Atom: ast.Atom{Pred: "flag"}},
	})...))
	f.Add(one[:len(one)-3]) // torn tail
	mangled := append([]byte(nil), one...)
	mangled[len(mangled)-1] ^= 0xff // CRC mismatch in the last record
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		base, recs, goodLen, err := parseWAL(data)
		if err != nil {
			return
		}
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		next := base + 1
		for _, r := range recs {
			if r.version != next {
				t.Fatalf("non-sequential record version %d, want %d", r.version, next)
			}
			next++
			for _, m := range r.muts {
				if m.Op != OpAssert && m.Op != OpRetract {
					t.Fatalf("decoded invalid op %d", m.Op)
				}
				if !m.Atom.IsGround() {
					t.Fatalf("decoded non-ground atom %s", m.Atom)
				}
			}
		}
		// The accepted prefix must re-parse to the same result: truncation
		// at goodLen is what recovery does on disk.
		base2, recs2, goodLen2, err2 := parseWAL(data[:goodLen])
		if err2 != nil || base2 != base || goodLen2 != goodLen || len(recs2) != len(recs) {
			t.Fatalf("re-parse of valid prefix diverged: err=%v base %d/%d goodLen %d/%d recs %d/%d",
				err2, base2, base, goodLen2, goodLen, len(recs2), len(recs))
		}
		// And round-trip: re-encoding the decoded records and parsing
		// that must give back the same records. (Not byte-exact: varints
		// admit non-minimal encodings that we decode but never emit.)
		enc := encodeHeader(base)
		for _, r := range recs {
			enc = append(enc, encodeRecord(r.version, r.muts)...)
		}
		base3, recs3, goodLen3, err3 := parseWAL(enc)
		if err3 != nil || base3 != base || goodLen3 != len(enc) || len(recs3) != len(recs) {
			t.Fatalf("re-encode round-trip diverged: err=%v base %d/%d recs %d/%d",
				err3, base3, base, len(recs3), len(recs))
		}
		for i, r := range recs3 {
			if r.version != recs[i].version || len(r.muts) != len(recs[i].muts) {
				t.Fatalf("record %d diverged after round-trip", i)
			}
			for j, m := range r.muts {
				if m.Op != recs[i].muts[j].Op || m.Atom.String() != recs[i].muts[j].Atom.String() {
					t.Fatalf("mutation %d/%d diverged after round-trip", i, j)
				}
			}
		}
	})
}
