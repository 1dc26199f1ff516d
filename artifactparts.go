package revalidate

import (
	"repro/internal/cast"
	"repro/internal/castmap"
	"repro/internal/schema"
	"repro/internal/stream"
	"repro/internal/subsume"
)

// NewUniverseModels is NewUniverse drawing content models from a shared
// table instead of compiling each one on every load. The table changes
// only the cost of loading, never the loaded schemas. It exists for the
// in-module registry and artifact codec.
func NewUniverseModels(models *schema.ModelTable) *Universe {
	u := NewUniverse()
	u.models = models
	return u
}

// Abstract exposes the underlying abstract schema (Σ, T, ρ, R). It exists
// for in-module subsystems that serialize or inspect compiled state (the
// artifact codec); application code should stay on the Schema API.
func (s *Schema) Abstract() *schema.Schema { return s.s }

// Parts exposes the caster's precomputed internals — the R_sub/R_dis
// relations and the shared content-model caster table — for the artifact
// codec. The returned values are the live state, not copies; treat them as
// read-only.
func (c *Caster) Parts() (*subsume.Relations, *castmap.Table) {
	return c.engine.Rel, c.engine.Table()
}

// RestoreCasterPair is NewCasterPair from precomputed parts: it assembles
// both validation modes around relations and a caster table deserialized
// from a stored artifact, performing none of the preprocessing (no
// subsumption fixpoints, no product automata). The relations must be over
// exactly this schema pair's abstract schemas.
func RestoreCasterPair(src, dst *Schema, rel *subsume.Relations, table *castmap.Table) (*Caster, *StreamCaster, error) {
	if err := sameUniverse(src, dst); err != nil {
		return nil, nil, err
	}
	engine, err := cast.Restore(src.s, dst.s, rel, table, cast.Options{})
	if err != nil {
		return nil, nil, err
	}
	c := &Caster{src: src, dst: dst, engine: engine}
	sc := &StreamCaster{src: src, dst: dst, c: stream.NewCasterFrom(src.s, dst.s, rel, table)}
	return c, sc, nil
}
