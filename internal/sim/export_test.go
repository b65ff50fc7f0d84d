package sim

// StepErrors exposes stepErrors — the fused Step + Errors that Run uses
// — to the external differential tests.
func (e *Engine) StepErrors() []float64 { return e.stepErrors() }
