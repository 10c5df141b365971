package mixzone

import (
	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// ReferenceFindDiverging is the diverging-trajectory search with no
// watermark guard: every call runs the KNN and tests every candidate's
// heading. The guard's differential test holds FindDiverging to it.
func ReferenceFindDiverging(idx stindex.Index, store phl.Storer, issuer phl.UserID,
	p geo.Point, t int64, k int, d Divergence, m geo.STMetric) ([]phl.UserID, bool) {
	if k <= 0 {
		return nil, true
	}
	fetch := 4*k + 8
	cands := idx.KNearestUsers(geo.STPoint{P: p, T: t}, fetch, m, map[phl.UserID]bool{issuer: true})
	var kept []phl.UserID
	var headings []float64
	for _, c := range cands {
		hd, ok := d.heading(store.History(c.User), t)
		if !ok {
			continue
		}
		diverges := true
		for _, other := range headings {
			if angleDiff(hd, other) < d.minAngle() {
				diverges = false
				break
			}
		}
		if diverges {
			kept = append(kept, c.User)
			headings = append(headings, hd)
			if len(kept) == k {
				return kept, true
			}
		}
	}
	return kept, false
}

// MisguardedFindDiverging skips the search whenever no sample lies at
// or after t + Horizon. That guard is wrong: one sample in (t, t+Horizon)
// already gives a candidate a heading. The differential test must catch
// it, which shows the test can tell a sound guard from an unsound one.
func MisguardedFindDiverging(idx stindex.Index, store phl.Storer, issuer phl.UserID,
	p geo.Point, t int64, k int, d Divergence, m geo.STMetric) ([]phl.UserID, bool) {
	if k <= 0 {
		return nil, true
	}
	if latest, ok := store.Latest(); !ok || latest < t+d.horizon() {
		return nil, false
	}
	return ReferenceFindDiverging(idx, store, issuer, p, t, k, d, m)
}
