// Package serve is the long-lived DP synthesis service behind the
// netdpsynd daemon. It keeps registered trace tables, tracks
// cumulative zCDP spend per dataset against a configured ceiling, and
// runs synthesis requests through an async job queue whose engine
// workers are bounded by one global budget shared across concurrent
// jobs.
//
// The privacy argument: every synthesis release from the same trace
// composes — zCDP additively — so a service that answers repeated
// requests must meter them centrally or the per-release (ε, δ) claim
// silently erodes (Tran et al. quantify exactly this failure mode for
// synthetic network traffic). Budget is the meter: it charges the ρ
// of a release when the request is admitted and refuses requests that
// would cross the ceiling. Identical deterministic requests are
// served from a result cache without a new charge, because re-running
// a fixed (Config, Seed) computation releases no new information.
package serve

import (
	"fmt"
	"sort"
	"sync"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// ErrBudgetExceeded is returned by Budget.Charge when a release would
// cross the dataset's ρ ceiling; the HTTP layer maps it to 403.
var ErrBudgetExceeded = fmt.Errorf("serve: dataset privacy budget exceeded")

// ErrPersist is returned when durable state (the journal or the
// spool) cannot be written. The HTTP layer maps it to 503: the
// operation did not happen — in particular no unpersisted ρ was
// charged — and the client may retry.
var ErrPersist = fmt.Errorf("serve: durable state write failed")

// chargeJournal persists charge records durably before the charges
// are applied; *persist.Store satisfies it.
type chargeJournal interface {
	AppendCharge(persist.ChargeRecord) error
	AppendWindowCharge(persist.WindowChargeRecord) error
	AppendEvalCharge(persist.EvalChargeRecord) error
}

// Budget is the thread-safe per-dataset zCDP ledger. Charges are
// applied when a request is admitted, before the job runs: a failed
// job still consumes its charge (conservative accounting — noise may
// already have been sampled by the time a run errors). When a journal
// is bound, a charge is made durable before it is applied, so a
// daemon restart can never forget spend that influenced a release.
//
// The ledger has two axes:
//
//   - A scalar: whole-trace releases and evaluations touch every
//     record, so they compose sequentially with everything and their ρ
//     simply adds (Charge).
//   - Per window key (span, bucket): a time-span windowed release
//     touches only the records of one bucket, and a record's bucket
//     is ⌊ts/span⌋ — a function of that record alone. Under parallel
//     composition a record's loss across one span's windowed releases
//     is the spend of ITS key, so the ledger position contributed by
//     a span is the MAX across that span's keys, not the sum — three
//     distinct buckets released under ρ cost the ledger ρ, while
//     re-releasing the same bucket in a later epoch adds to that
//     key alone (sequential on the key) and moves the max only once
//     it leads (ChargeWindow). Keys of different spans overlap
//     arbitrarily (a record has one bucket per span), so the spans'
//     maxima add, as does the scalar.
//
// The enforced invariant: scalar + Σ_span max_bucket ≤ ceiling — an
// upper bound on any single record's cumulative loss.
type Budget struct {
	mu       sync.Mutex
	acct     *netdpsyn.Accountant // the scalar axis (and the ceiling)
	delta    float64
	releases int
	journal  chargeJournal // nil: volatile ledger
	// windowRho is the per-key axis: span → bucket → cumulative ρ.
	windowRho map[int64]map[int64]float64
}

// NewBudget creates a ledger with a total ρ ceiling. delta is the δ
// at which the implied cumulative ε is reported.
func NewBudget(ceilingRho, delta float64) (*Budget, error) {
	acct, err := netdpsyn.NewAccountant(ceilingRho)
	if err != nil {
		return nil, fmt.Errorf("serve: budget ceiling: %w", err)
	}
	if !(delta > 0) || delta >= 1 { // !(x > 0) also catches NaN
		return nil, fmt.Errorf("serve: budget delta must be in (0,1), got %v", delta)
	}
	return &Budget{acct: acct, delta: delta}, nil
}

// bind attaches a journal: every subsequent Charge with a record is
// journaled durably before it is applied.
func (b *Budget) bind(j chargeJournal) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.journal = j
}

// restore replays a recovered scalar ledger position. It bypasses the
// ceiling check (the charges were admitted under the ceiling when
// they happened); if corrupt state pushes spend past the ceiling,
// every further Charge fails — the conservative direction.
func (b *Budget) restore(spentRho float64, releases int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acct.ForceSpend(spentRho)
	b.releases = releases
}

// restoreWindow replays a recovered per-window-key position, with the
// same bypass-the-ceiling rule as restore.
func (b *Budget) restoreWindow(span, bucket int64, rho float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addWindowLocked(span, bucket, rho)
}

// forceScalar adds recovered spend to the scalar axis without a
// ceiling check — the fold-in fallback for window spend whose key
// cannot be attributed.
func (b *Budget) forceScalar(rho float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acct.ForceSpend(rho)
}

func (b *Budget) addWindowLocked(span, bucket int64, rho float64) {
	if b.windowRho == nil {
		b.windowRho = make(map[int64]map[int64]float64)
	}
	byBucket := b.windowRho[span]
	if byBucket == nil {
		byBucket = make(map[int64]float64)
		b.windowRho[span] = byBucket
	}
	byBucket[bucket] += rho
}

// windowSpentLocked is the per-key axis' contribution to the ledger
// position: per span the max across its bucket keys, summed over
// spans. Caller holds b.mu.
func (b *Budget) windowSpentLocked() float64 {
	var total float64
	for _, byBucket := range b.windowRho {
		var max float64
		for _, rho := range byBucket {
			if rho > max {
				max = rho
			}
		}
		total += max
	}
	return total
}

// spentLocked is the full ledger position. Caller holds b.mu.
func (b *Budget) spentLocked() float64 {
	return b.acct.Spent() + b.windowSpentLocked()
}

// Charge admits a release costing rho on the scalar axis, or refuses
// without mutating the ledger: ErrBudgetExceeded (wrapped with the
// shortfall) when the release would cross the ceiling, ErrPersist
// when a bound journal cannot make the charge durable. The order is
// ceiling check → journal → apply, so a charge is durable before
// anything acts on it and an unjournaled ρ is never charged.
func (b *Budget) Charge(rho float64, rec *persist.ChargeRecord) error {
	return b.ChargeAdmission(rho, rho, rec)
}

// ChargeAdmission is Charge with the ceiling gate decoupled from the
// applied scalar spend: the admission is refused unless `gate` more ρ
// still fits, but only `rho` is applied. Span and follow jobs admit
// with gate = one window's ρ and rho = 0 — their spend lands per
// window key while the job runs (ChargeWindow), but an admission that
// could not afford even one fresh window must 403 up front rather
// than fail at its first window.
func (b *Budget) ChargeAdmission(gate, rho float64, rec *persist.ChargeRecord) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gate < rho {
		gate = rho
	}
	if spent := b.spentLocked(); spent+gate > b.acct.Total() {
		return fmt.Errorf("%w: want ρ=%.6g, remaining ρ=%.6g of %.6g",
			ErrBudgetExceeded, gate, b.acct.Total()-spent, b.acct.Total())
	}
	if b.journal != nil && rec != nil {
		if err := b.journal.AppendCharge(*rec); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	// Cannot fail: the combined check above is stricter than the
	// accountant's scalar one, under the same lock.
	if err := b.acct.Spend(rho); err != nil {
		return err
	}
	b.releases++
	return nil
}

// ChargeEval admits an evaluation job costing rho on the scalar axis
// — the price of the raw-data queries its metrics make (fidelity, ML
// accuracy, and MIA all read the protected trace, so they compose
// sequentially with every release like any other statistical query).
// rho = 0 is the release-only evaluation: it reads nothing but the
// released CSV, which is free post-processing, but the admission is
// still journaled so a killed evaluation replays as a (zero-)charged
// failure instead of vanishing. Order is the same as Charge: ceiling
// check → journal → apply, never a refund.
func (b *Budget) ChargeEval(rho float64, rec *persist.EvalChargeRecord) error {
	if !(rho >= 0) {
		return fmt.Errorf("serve: evaluation charge must be non-negative, got %v", rho)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if spent := b.spentLocked(); spent+rho > b.acct.Total() {
		return fmt.Errorf("%w: evaluation wants ρ=%.6g, remaining ρ=%.6g of %.6g",
			ErrBudgetExceeded, rho, b.acct.Total()-spent, b.acct.Total())
	}
	if b.journal != nil && rec != nil {
		if err := b.journal.AppendEvalCharge(*rec); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	if err := b.acct.Spend(rho); err != nil {
		return err
	}
	if rho > 0 {
		b.releases++
	}
	return nil
}

// ChargeWindow admits one window's release: rho is added to the
// (span, bucket) key, and the admission is refused (ErrBudgetExceeded)
// if the resulting ledger position — scalar + Σ_span max_bucket, with
// this key raised — would cross the ceiling. Raising a key that does
// not become its span's max leaves the position unchanged (parallel
// composition across distinct buckets); re-charging the leading key
// moves it one-for-one (sequential composition on the same bucket).
// Journal-before-apply as in Charge. Note the journaled record names
// the bucket: for feeds whose bucket occupancy is itself sensitive,
// the journal (like the result stream) is part of the release
// surface — see the declared-range hardening at the HTTP layer.
func (b *Budget) ChargeWindow(span, bucket int64, rho float64, rec *persist.WindowChargeRecord) error {
	if !(rho >= 0) {
		return fmt.Errorf("serve: window charge must be non-negative, got %v", rho)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// The position delta from raising this key: how much the key's new
	// value exceeds its span's current max (zero when another bucket
	// still leads).
	var cur, max float64
	if byBucket := b.windowRho[span]; byBucket != nil {
		cur = byBucket[bucket]
		for _, v := range byBucket {
			if v > max {
				max = v
			}
		}
	}
	increase := cur + rho - max
	if increase < 0 {
		increase = 0
	}
	if spent := b.spentLocked(); spent+increase > b.acct.Total() {
		return fmt.Errorf("%w: window (span %d, bucket %d) needs ρ=%.6g beyond the position, remaining ρ=%.6g of %.6g",
			ErrBudgetExceeded, span, bucket, increase, b.acct.Total()-spent, b.acct.Total())
	}
	if b.journal != nil && rec != nil {
		if err := b.journal.AppendWindowCharge(*rec); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	b.addWindowLocked(span, bucket, rho)
	return nil
}

// Status is a point-in-time snapshot of the ledger, serialized on the
// GET /datasets/{id}/budget endpoint.
type Status struct {
	// CeilingRho, SpentRho, RemainingRho are the ledger state in zCDP.
	// SpentRho is the full position: the scalar spend plus, per window
	// span, the max across that span's bucket keys.
	CeilingRho   float64 `json:"ceiling_rho"`
	SpentRho     float64 `json:"spent_rho"`
	RemainingRho float64 `json:"remaining_rho"`
	// Releases counts the admitted (charged) synthesis releases.
	Releases int `json:"releases"`
	// Delta and the Eps* fields express the same state as (ε, δ)-DP:
	// the guarantee already consumed and the ceiling, both at Delta.
	Delta      float64 `json:"delta"`
	EpsSpent   float64 `json:"eps_spent"`
	EpsCeiling float64 `json:"eps_ceiling"`
	// WindowRho details the per-window-key spend behind SpentRho,
	// keyed "s<span>/b<bucket>". It names released buckets, which is
	// occupancy information — the budget endpoint is operator-facing,
	// but treat this field with the same care as the release itself.
	WindowRho map[string]float64 `json:"window_rho,omitempty"`
	// WindowSpend is the same per-key spend in structured form, sorted
	// by (span, bucket) — the machine-consumable representation (the
	// map above keeps the string keys for older clients). The numbers
	// are the ledger's own, so they agree exactly with the
	// netdpsynd_budget_* gauges on /metrics.
	WindowSpend []WindowKeySpend `json:"window_spend,omitempty"`
}

// WindowKeySpend is one (span, bucket) ledger key's cumulative ρ.
type WindowKeySpend struct {
	Key    string  `json:"key"` // persist.WindowKey(span, bucket)
	Span   int64   `json:"span"`
	Bucket int64   `json:"bucket"`
	Rho    float64 `json:"rho"`
}

// Position returns the ledger position and ceiling — the scrape-time
// read behind the budget gauges (cheaper than a full Snapshot).
func (b *Budget) Position() (spent, ceiling float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spentLocked(), b.acct.Total()
}

// WindowKeys counts the distinct (span, bucket) keys holding spend.
func (b *Budget) WindowKeys() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, byBucket := range b.windowRho {
		n += len(byBucket)
	}
	return n
}

// Snapshot returns the current ledger state.
func (b *Budget) Snapshot() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Status{
		CeilingRho:   b.acct.Total(),
		SpentRho:     b.spentLocked(),
		RemainingRho: b.acct.Total() - b.spentLocked(),
		Releases:     b.releases,
		Delta:        b.delta,
	}
	if s.RemainingRho < 0 {
		s.RemainingRho = 0 // corrupt over-ceiling restore: locked ledger
	}
	if len(b.windowRho) > 0 {
		s.WindowRho = make(map[string]float64)
		for span, byBucket := range b.windowRho {
			for bucket, rho := range byBucket {
				s.WindowRho[persist.WindowKey(span, bucket)] = rho
				s.WindowSpend = append(s.WindowSpend, WindowKeySpend{
					Key:    persist.WindowKey(span, bucket),
					Span:   span,
					Bucket: bucket,
					Rho:    rho,
				})
			}
		}
		sort.Slice(s.WindowSpend, func(i, j int) bool {
			a, c := s.WindowSpend[i], s.WindowSpend[j]
			if a.Span != c.Span {
				return a.Span < c.Span
			}
			return a.Bucket < c.Bucket
		})
	}
	// Errors are impossible here: both ρ values are ≥ 0 and δ was
	// validated in NewBudget.
	s.EpsSpent, _ = netdpsyn.EpsFromRhoDelta(s.SpentRho, b.delta)
	s.EpsCeiling, _ = netdpsyn.EpsFromRhoDelta(s.CeilingRho, b.delta)
	return s
}
