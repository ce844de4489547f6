package harness

import (
	"encoding/json"
	"io"
)

// jsonFigure is the export schema of a figure result.
type jsonFigure struct {
	Experiment string      `json:"experiment"`
	Title      string      `json:"title"`
	Bench      string      `json:"bench"`
	Machine    string      `json:"machine"`
	Panels     []jsonPanel `json:"panels"`
}

type jsonPanel struct {
	N      int          `json:"n"`
	Bases  []int        `json:"bases"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Label   string    `json:"label"`
	Seconds []float64 `json:"seconds"`
}

// WriteJSON renders the result as one JSON document, suitable for external
// plotting tools.
func (r *FigureResult) WriteJSON(w io.Writer) error {
	out := jsonFigure{
		Experiment: r.Exp.ID,
		Title:      r.Exp.Title,
		Bench:      r.Exp.Bench,
		Machine:    r.Exp.Machine().Name,
	}
	for _, p := range r.Panels {
		jp := jsonPanel{N: p.N, Bases: p.Bases}
		for _, s := range p.Series {
			js := jsonSeries{Label: s.Label}
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
