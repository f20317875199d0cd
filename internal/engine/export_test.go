package engine

import (
	"sort"

	"cdmm/internal/vmsim"
)

// Key builders for the sweep artifacts, so tests can name the memo
// entries the product computes.
var (
	WSRunKey    = wsRunKey
	CDDetuneKey = cdDetuneKey
)

// WSMinValue is the memoized form of a WSMinST answer.
func WSMinValue(tau int, res vmsim.Result) any { return wsMin{tau, res} }

// Keys lists the engine's memo keys, sorted.
func (e *Engine) Keys() []Key {
	e.memo.mu.Lock()
	keys := make([]Key, 0, len(e.memo.m))
	for k := range e.memo.m {
		keys = append(keys, k)
	}
	e.memo.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		return a.Params < b.Params
	})
	return keys
}
