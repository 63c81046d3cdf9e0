package analysis

// Suite returns the full nestlint analyzer suite in reporting order.
// The first five are the AST-level contract checks; poollife and
// engineown are the dataflow analyzers built on the CFG core (cfg.go /
// dataflow.go).
func Suite() []*Analyzer {
	return []*Analyzer{
		Simtime,
		Detrand,
		Maporder,
		Obsguard,
		Postdiscipline,
		Poollife,
		Engineown,
	}
}

// Version identifies the suite's contract set; bump when an analyzer
// is added or a contract materially changes, and record the change in
// CHANGES.md and docs/ANALYSIS.md.
const Version = "2.0.0"
