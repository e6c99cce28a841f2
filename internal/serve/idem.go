package serve

// defaultIdemEntries bounds the completed-result replay window when
// Config.IdempotencyWindow is zero.
const defaultIdemEntries = 1024

// idemWindow is the bounded at-most-once execution window behind
// Query.IdempotencyKey. Its contract is "at-most-once execution,
// at-least-once response": while a key's entry is live — in flight, or
// completed and not yet evicted — a resubmission never re-executes the
// plan. In-flight entries coalesce duplicates onto the leader; completed
// successful entries replay the original result; failed entries are
// dropped so a later retry re-executes (an error is not a result worth
// pinning, and retrying it is the client's explicit intent). A coalesced
// waiter returns its leader's error rather than retrying. Only completed
// entries count against the LRU cap: a leader must always be able to
// settle, so in-flight keys are never evicted.
type idemWindow = keyed[string, *QueryResult]

func newIdemWindow(capacity int) *idemWindow {
	return newKeyed[string, *QueryResult](int64(capacity), nil)
}

// replayOf returns a settled result as a fresh shallow copy marked
// Replayed: the stored QueryResult is shared by every future replay, so
// callers must never receive (and possibly mutate) the canonical pointer.
// Values and ResultHash are shared with the original — that sharing is the
// bitwise-identity guarantee.
func replayOf(res *QueryResult) *QueryResult {
	out := *res
	out.Replayed = true
	return &out
}
