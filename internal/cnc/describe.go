package cnc

import (
	"fmt"
	"sort"
	"strings"
)

// Describe renders the static CnC specification in the paper's textual
// notation (Listing 1): parentheses for step collections, square brackets
// for item collections and angle brackets for tag collections.
func (g *Graph) Describe() string {
	g.structMu.Lock()
	defer g.structMu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "// CnC specification of graph %q\n", g.name)
	for _, s := range g.steps {
		for _, t := range s.prescribedBy {
			fmt.Fprintf(&sb, "<%s> :: (%s);\n", t, s.name)
		}
	}
	for _, s := range g.steps {
		var parts []string
		for _, c := range sortedCopy(s.consumes) {
			parts = append(parts, fmt.Sprintf("[%s]", c))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&sb, "%s --> (%s);\n", strings.Join(parts, ", "), s.name)
		}
		parts = parts[:0]
		for _, p := range sortedCopy(s.produces) {
			parts = append(parts, fmt.Sprintf("[%s]", p))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&sb, "(%s) --> %s;\n", s.name, strings.Join(parts, ", "))
		}
	}
	// Memory contract: get-count / size-of / tag-bytes declarations and the
	// graph's live-bytes budget, so a dump documents not only who produces
	// and consumes what, but when data dies and how much may live at once.
	for _, it := range g.items {
		var decls []string
		if it.getCount {
			decls = append(decls, "get-count")
		}
		if it.sizeOf {
			decls = append(decls, "size-of")
		}
		if len(decls) > 0 {
			fmt.Fprintf(&sb, "[%s] : %s;\n", it.name, strings.Join(decls, ", "))
		}
	}
	for _, s := range g.steps {
		if s.releases {
			fmt.Fprintf(&sb, "(%s) : releases gets on completion;\n", s.name)
		}
	}
	for _, t := range g.tags {
		if t.tagBytes {
			fmt.Fprintf(&sb, "<%s> : tag-bytes;\n", t.name)
		}
	}
	if g.acct.limit > 0 {
		fmt.Fprintf(&sb, "// memory limit: %d bytes (throttled puts deferred until frees land)\n", g.acct.limit)
	}
	fmt.Fprintf(&sb, "// scheduler: %d worker(s), work-stealing dispatch (random victim order), %d-way striped item stores\n",
		g.workers, itemShards)
	return sb.String()
}

// Dot renders the static CnC graph in Graphviz DOT format: ovals for step
// collections, rectangles for item collections and hexagons for tag
// collections — the shapes of the paper's Figure 1.
func (g *Graph) Dot() string {
	g.structMu.Lock()
	defer g.structMu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", g.name)
	for _, t := range g.tags {
		fmt.Fprintf(&sb, "  %q [shape=hexagon label=\"<%s>\"];\n", "tag_"+t.name, t.name)
	}
	for _, i := range g.items {
		// Double periphery marks get-counted (garbage-collected) items.
		extra := ""
		if i.getCount {
			extra = " peripheries=2"
		}
		fmt.Fprintf(&sb, "  %q [shape=box%s label=\"[%s]\"];\n", "item_"+i.name, extra, i.name)
	}
	for _, s := range g.steps {
		fmt.Fprintf(&sb, "  %q [shape=oval label=\"(%s)\"];\n", "step_"+s.name, s.name)
	}
	for _, s := range g.steps {
		for _, t := range s.prescribedBy {
			fmt.Fprintf(&sb, "  %q -> %q [style=dashed];\n", "tag_"+t, "step_"+s.name)
		}
		for _, c := range sortedCopy(s.consumes) {
			fmt.Fprintf(&sb, "  %q -> %q;\n", "item_"+c, "step_"+s.name)
		}
		for _, p := range sortedCopy(s.produces) {
			fmt.Fprintf(&sb, "  %q -> %q;\n", "step_"+s.name, "item_"+p)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}
