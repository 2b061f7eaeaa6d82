package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// oracle checks sampled answers against core.BruteForceTop over the
// same catalogs the wdbserver children serve. It sees the raw relations,
// which the program under test never does.
//
// The engine emits a group of tuples with equal scores in discovery
// order, not ID order (see README.md, findings), so an answer cannot be
// compared to the brute-force list as one byte string. The check is the
// strongest one that holds for any tie order: every row is byte for byte
// the oracle's rendering of a catalog tuple that matches the filter, no
// tuple appears twice in a session, every page is as long as the brute-
// force answer says, and the score at every position equals the score
// brute force has there.
type oracle struct {
	cats  map[string]*datagen.Catalog
	norms map[string]ranking.Normalization
	// want memoizes a form's parsed query and brute-force prefix; hot
	// forms are sampled many times.
	want map[string]*expectation
}

type expectation struct {
	cat  *datagen.Catalog
	k    int // the form's page size
	pred relation.Predicate
	sc   *ranking.Scorer
	top  []relation.Tuple // brute-force prefix, pages*k long unless matches ran out
	rows int              // how many rows top was asked for
}

// newOracle discovers each source's normalisation the way the service
// does — core's min/max discovery through the top-k interface — because
// MD scores, and so MD orderings, depend on the discovered bounds.
func newOracle(ctx context.Context, cats map[string]*datagen.Catalog) (*oracle, error) {
	o := &oracle{cats: cats, norms: map[string]ranking.Normalization{}, want: map[string]*expectation{}}
	for name, cat := range cats {
		db, err := hidden.NewLocal(name, cat.Rel, systemK, cat.Rank)
		if err != nil {
			return nil, err
		}
		rr, err := core.New(db, core.Options{})
		if err != nil {
			return nil, err
		}
		if o.norms[name], err = rr.Normalization(ctx); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// expected returns form's parsed query with the brute-force rows of its
// first pages pages (fewer only when the matches run out).
func (o *oracle) expected(form string, pages int) (*expectation, error) {
	e := o.want[form]
	if e == nil {
		v, err := url.ParseQuery(form)
		if err != nil {
			return nil, err
		}
		cat, ok := o.cats[v.Get("source")]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown source in form %q", form)
		}
		fn, pred, err := parseForm(cat.Rel.Schema(), form)
		if err != nil {
			return nil, err
		}
		sc, err := ranking.Bind(fn, cat.Rel.Schema(), o.norms[cat.Name])
		if err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(v.Get("k"))
		if err != nil {
			return nil, fmt.Errorf("oracle: page size of form %q: %w", form, err)
		}
		e = &expectation{cat: cat, k: k, pred: pred, sc: sc}
		o.want[form] = e
	}
	if rows := pages * e.k; e.rows < rows {
		e.top = core.BruteForceTop(e.cat.Rel, e.pred, e.sc, rows)
		e.rows = rows
	}
	return e, nil
}

// oracleRow mirrors the service's response row; encoding/json renders
// both the same way, so equal rows are equal bytes.
type oracleRow struct {
	ID     int64          `json:"id"`
	Values map[string]any `json:"values"`
}

// rowValues renders a tuple's values as the service does: labels for
// categorical attributes, numbers otherwise.
func rowValues(schema *relation.Schema, t relation.Tuple) map[string]any {
	vals := make(map[string]any, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		if a.Kind == relation.Categorical {
			label, _ := a.Category(t.Values[i])
			vals[a.Name] = label
		} else {
			vals[a.Name] = t.Values[i]
		}
	}
	return vals
}

// check verifies every page of one sampled session.
func (o *oracle) check(s answerSample) error {
	e, err := o.expected(s.form, len(s.pages))
	if err != nil {
		return err
	}
	schema := e.cat.Rel.Schema()
	seen := map[int64]bool{}
	pos := 0
	for p, raw := range s.pages {
		var rows []json.RawMessage
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("page %d of %s: %w", p+1, s.form, err)
		}
		if want := min(e.k, len(e.top)-pos); len(rows) != want {
			return fmt.Errorf("page %d of %s: %d rows, brute force has %d", p+1, s.form, len(rows), want)
		}
		for i, row := range rows {
			var head struct {
				ID int64 `json:"id"`
			}
			if err := json.Unmarshal(row, &head); err != nil {
				return fmt.Errorf("page %d row %d of %s: %w", p+1, i, s.form, err)
			}
			// Generated catalogs number their tuples 1..n in order.
			if head.ID < 1 || head.ID > int64(e.cat.Rel.Len()) {
				return fmt.Errorf("page %d row %d of %s: no tuple %d in the catalog", p+1, i, s.form, head.ID)
			}
			t := e.cat.Rel.Tuple(int(head.ID - 1))
			want, err := json.Marshal(oracleRow{ID: t.ID, Values: rowValues(schema, t)})
			if err != nil {
				return err
			}
			switch {
			case t.ID != head.ID || !bytes.Equal(row, want):
				return fmt.Errorf("page %d row %d of %s: row differs from the catalog tuple:\n got %s\nwant %s", p+1, i, s.form, row, want)
			case !e.pred.Match(t):
				return fmt.Errorf("page %d row %d of %s: tuple %d does not match the filter", p+1, i, s.form, t.ID)
			case seen[t.ID]:
				return fmt.Errorf("page %d row %d of %s: tuple %d returned twice", p+1, i, s.form, t.ID)
			case e.sc.Score(t) != e.sc.Score(e.top[pos]):
				return fmt.Errorf("page %d row %d of %s: tuple %d scores %v, brute force has %v (tuple %d) at this rank",
					p+1, i, s.form, t.ID, e.sc.Score(t), e.sc.Score(e.top[pos]), e.top[pos].ID)
			}
			seen[t.ID] = true
			pos++
		}
	}
	return nil
}
