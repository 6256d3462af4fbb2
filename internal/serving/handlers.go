package serving

import (
	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
)

// VanillaHandler serves the original model with no early exits.
type VanillaHandler struct {
	Model *model.Model
}

// BatchLatency returns the model's batch execution time.
func (h *VanillaHandler) BatchLatency(b int) float64 { return h.Model.Latency(b) }

// Serve runs the request to the end of the model.
func (h *VanillaHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	return ramp.Outcome{ExitIndex: -1, ServeMS: h.Model.Latency(b), Correct: true}
}

// ApparateHandler serves an EE-enabled model under Apparate's controller:
// results exit early, inputs run to completion, and every outcome feeds
// the controller's adaptation loops.
type ApparateHandler struct {
	Cfg *ramp.Config
	Ctl *controller.Controller
}

// NewApparate prepares a model with Apparate's default ramps (even
// spacing, zero thresholds) and attaches a controller.
func NewApparate(m *model.Model, profile exitsim.Profile, budgetFrac float64, ctlOpts controller.Config) *ApparateHandler {
	cfg := ramp.NewConfig(m, profile, budgetFrac)
	cfg.DeployInitial(ramp.StyleDefault)
	return &ApparateHandler{Cfg: cfg, Ctl: controller.New(cfg, ctlOpts)}
}

// BatchLatency is the worst case: full model plus all active ramps. The
// scheduler plans with it, which is how Apparate's tail-latency impact
// stays bounded by the ramp budget.
func (h *ApparateHandler) BatchLatency(b int) float64 { return h.Cfg.WorstCaseMS(b) }

// Serve evaluates the input against the EE configuration and feeds the
// controller.
func (h *ApparateHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	out := h.Cfg.Evaluate(s, b)
	h.Ctl.Observe(out)
	return out
}

// StaticEEHandler serves a fixed early-exit configuration with no runtime
// adaptation — the behavior of existing EE models like BranchyNet and
// DeeBERT (§4.4). Thresholds are whatever the configuration carries.
type StaticEEHandler struct {
	Cfg *ramp.Config
}

// BatchLatency includes every always-on ramp.
func (h *StaticEEHandler) BatchLatency(b int) float64 { return h.Cfg.WorstCaseMS(b) }

// Serve evaluates the fixed configuration. With static EE models an exit
// truly halts execution, but the response latency is identical to
// Apparate's release-at-ramp semantics, so the same evaluation applies.
func (h *StaticEEHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	return h.Cfg.Evaluate(s, b)
}
