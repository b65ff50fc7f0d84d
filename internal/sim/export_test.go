package sim

// StepErrors exposes stepErrors — the fused Step + Errors that Run uses
// — to the external differential tests.
func (e *Engine) StepErrors() []float64 { return e.stepErrors() }

// OwnedMessages counts the messages the engine holds between rounds: the
// per-shard free lists and send queues plus every inbox.
func (e *Engine) OwnedMessages() int {
	n := 0
	for i := range e.inbox {
		n += len(e.inbox[i])
	}
	for s := range e.shard.local {
		sl := &e.shard.local[s]
		n += len(sl.pool) + len(sl.outbox)
		for _, col := range sl.bucket {
			n += len(col)
		}
	}
	return n
}
