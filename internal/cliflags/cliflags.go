// Package cliflags holds the flag definitions the olsim, olbench and
// olfault commands share, so the checkpoint/resume surface is declared
// once instead of hand-rolled per command.
package cliflags

import (
	"flag"

	"orderlight"
)

// Checkpoint receives the shared crash-safety flags. Validation is not
// done here: the option invariants (resume needs a directory, ...) live
// in the library's single buildOpts gate, so every command reports them
// identically.
type Checkpoint struct {
	// Dir is -checkpoint-dir.
	Dir string
	// Resume is -resume.
	Resume bool
}

// RegisterCheckpoint installs -checkpoint-dir and -resume on fs (use
// flag.CommandLine in main).
func RegisterCheckpoint(fs *flag.FlagSet) *Checkpoint {
	c := &Checkpoint{}
	fs.StringVar(&c.Dir, "checkpoint-dir", "",
		"journal every finished cell in this directory (journal.jsonl)")
	fs.BoolVar(&c.Resume, "resume", false,
		"replay the cells journaled in -checkpoint-dir and simulate only the rest; the output is byte-identical to an uninterrupted run")
	return c
}

// Options converts the parsed flags into facade options.
func (c *Checkpoint) Options() []orderlight.Option {
	var opts []orderlight.Option
	if c.Dir != "" {
		opts = append(opts, orderlight.WithCheckpointDir(c.Dir))
	}
	if c.Resume {
		opts = append(opts, orderlight.WithResume())
	}
	return opts
}

// Active reports whether any checkpoint flag was set — commands whose
// remote modes cannot honor local checkpoint directories use it to
// reject the combination up front.
func (c *Checkpoint) Active() bool {
	return c.Dir != "" || c.Resume
}

// Cache receives the shared result-cache flag.
type Cache struct {
	// Dir is -cache-dir.
	Dir string
}

// RegisterCache installs -cache-dir on fs.
func RegisterCache(fs *flag.FlagSet) *Cache {
	c := &Cache{}
	fs.StringVar(&c.Dir, "cache-dir", "",
		"memoize completed cells in this content-addressed result cache; identical cells in later runs are served without simulating")
	return c
}

// Options converts the parsed flag into facade options.
func (c *Cache) Options() []orderlight.Option {
	if c.Dir == "" {
		return nil
	}
	return []orderlight.Option{orderlight.WithResultCache(c.Dir)}
}

// Active reports whether the cache flag was set.
func (c *Cache) Active() bool { return c.Dir != "" }

// Engine receives the shared engine-selection flags. Like Checkpoint,
// it does no validation of its own: unknown -engine names travel into
// the option bag verbatim so the library's single validation gate
// rejects them with the same message everywhere.
type Engine struct {
	// Name is -engine: "", "skip" or "dense".
	Name string
}

// RegisterEngine installs -engine on fs.
func RegisterEngine(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.StringVar(&e.Name, "engine", "",
		"simulation engine: skip (default) or dense (naive parity reference); results are byte-identical")
	return e
}

// Options converts the parsed flags into facade options.
func (e *Engine) Options() []orderlight.Option {
	if e.Name == "" {
		return nil
	}
	return []orderlight.Option{orderlight.WithEngine(e.Name)}
}

// Chaos receives the shared fault-injection flags. Like the other
// groups it does no validation: ParseChaosSpec inside Plan reports
// malformed specs, so every command rejects them identically.
type Chaos struct {
	// Spec is -chaos: comma-separated class=rate pairs
	// ("reset=0.2,enospc=0.1"; "net=R"/"fs=R" group shorthands).
	Spec string
	// Seed is -chaos-seed. The injected fault sequence is a pure
	// function of (seed, op index), so a failing run replays exactly.
	Seed uint64
}

// RegisterChaos installs -chaos and -chaos-seed on fs.
func RegisterChaos(fs *flag.FlagSet) *Chaos {
	c := &Chaos{}
	fs.StringVar(&c.Spec, "chaos", "",
		"inject deterministic infrastructure faults: comma-separated class=rate pairs (reset, timeout, http500, garbage, dup, delay, enospc, torn, fsyncfail, renamerace; net=R / fs=R arm a whole plane), e.g. net=0.2,fs=0.1")
	fs.Uint64Var(&c.Seed, "chaos-seed", 1,
		"seed for -chaos; the same seed replays the identical injected-fault sequence")
	return c
}

// Active reports whether a chaos spec was given.
func (c *Chaos) Active() bool { return c.Spec != "" }

// Plan parses the flags into a live chaos plan. Injections are logged
// through logf (nil discards); an empty or "none" spec yields a nil
// plan, which every injector treats as chaos-free.
func (c *Chaos) Plan(logf func(format string, args ...any)) (*orderlight.ChaosPlan, error) {
	spec, err := orderlight.ParseChaosSpec(c.Spec)
	if err != nil {
		return nil, err
	}
	spec.Seed = c.Seed
	return orderlight.NewChaosPlan(spec, logf)
}

// EngineName returns the engine the flags select, for labeling output:
// "dense" or "skip" (also for unknown names, which never reach a run —
// validation rejects them first).
func (e *Engine) EngineName() string {
	if e.Name == "dense" {
		return "dense"
	}
	return "skip"
}
