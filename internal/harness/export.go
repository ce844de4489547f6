package harness

import (
	"encoding/json"
	"io"
)

// WriteJSON renders the result as one JSON document, suitable for external
// plotting tools: the experiment, then per panel its bases and one seconds
// array per series.
func (r *FigureResult) WriteJSON(w io.Writer) error {
	type series struct {
		Label   string    `json:"label"`
		Seconds []float64 `json:"seconds"`
	}
	type panel struct {
		N      int      `json:"n"`
		Bases  []int    `json:"bases"`
		Series []series `json:"series"`
	}
	out := struct {
		Experiment string  `json:"experiment"`
		Title      string  `json:"title"`
		Bench      string  `json:"bench"`
		Machine    string  `json:"machine"`
		Panels     []panel `json:"panels"`
	}{
		Experiment: r.Exp.ID,
		Title:      r.Exp.Title,
		Bench:      r.Exp.Bench,
		Machine:    r.Exp.Machine().Name,
	}
	for _, p := range r.Panels {
		jp := panel{N: p.N, Bases: p.Bases}
		for _, s := range p.Series {
			js := series{Label: s.Label}
			for _, pt := range s.Points {
				js.Seconds = append(js.Seconds, pt.Seconds)
			}
			jp.Series = append(jp.Series, js)
		}
		out.Panels = append(out.Panels, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
