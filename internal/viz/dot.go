package viz

import (
	"fmt"
	"io"
	"strings"

	"cad/internal/louvain"
	"cad/internal/tsg"
)

// WriteDOT renders the TSG with its community partition as a Graphviz DOT
// graph: one node per sensor filled with its community's color, one edge
// per correlation link labeled with the weight (negative correlations are
// dashed). names may be nil for numeric labels.
func WriteDOT(w io.Writer, g *tsg.Graph, p louvain.Partition, names []string) error {
	var b strings.Builder
	b.WriteString("graph tsg {\n")
	b.WriteString("  layout=neato;\n  overlap=false;\n")
	b.WriteString(fmt.Sprintf("  bgcolor=%q;\n", colorSurface))
	b.WriteString(fmt.Sprintf("  node [style=filled, fontname=\"sans-serif\", fontcolor=%q];\n", colorSurface))
	b.WriteString(fmt.Sprintf("  edge [color=%q, fontcolor=%q, fontsize=9];\n", colorBaseline, colorMuted))
	for v := 0; v < g.N(); v++ {
		label := fmt.Sprintf("s%d", v+1)
		if names != nil && v < len(names) {
			label = names[v]
		}
		comm := -1
		if v < len(p.Of) {
			comm = p.Of[v]
		}
		b.WriteString(fmt.Sprintf("  n%d [label=%q, fillcolor=%q];\n", v, label, CommunityColor(comm)))
	}
	for u := 0; u < g.N(); u++ {
		ids, wts := g.Adj(u)
		for i, v := range ids {
			if v < u {
				continue // each undirected edge once
			}
			wt := wts[i]
			style := ""
			if wt < 0 {
				style = ", style=dashed"
			}
			b.WriteString(fmt.Sprintf("  n%d -- n%d [label=\"%.2f\"%s];\n", u, v, wt, style))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
