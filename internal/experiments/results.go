package experiments

import (
	"fmt"
	"io"
)

// ResultFile is one file of the reproduction's result set: its name under
// the output directory and the function that generates and renders it.
type ResultFile struct {
	Name string
	// Write computes the file's results under c, renders them to w and
	// returns the number of failed CHECK or shape lines it printed.
	Write func(c Config, w io.Writer) (failedChecks int, err error)
}

// ResultFiles is the paper's evaluation as cmd/reproduce writes it: every
// result file, in order.
var ResultFiles = []ResultFile{
	{"tables.txt", func(_ Config, w io.Writer) (int, error) {
		RenderTable1(w)
		fmt.Fprintln(w)
		RenderTable2(w)
		return 0, nil
	}},
	{"fig01.txt", rendered(Config.Fig1, RenderFigure)},
	{"fig02.txt", rendered(Config.Fig2, RenderFigure)},
	{"fig03.txt", rendered(Config.Fig3, RenderFigure)},
	{"fig04.txt", rendered(Config.Fig4, RenderFigure)},
	{"fig05.txt", rendered(Config.Fig5, RenderFigure)},
	{"fig06.txt", rendered(Config.Fig6, RenderFigure)},
	{"fig07.txt", rendered(Config.Fig7, RenderFigure)},
	{"fig08.txt", rendered(Config.Fig8, RenderFigure)},
	{"fig09.txt", rendered(Config.Fig9, RenderFigure)},
	{"fig10.txt", rendered(Config.Fig10, RenderFigure)},
	{"fig13.txt", rendered(Config.Fig13, RenderFig13)},
	{"fig14.txt", rendered(Config.Fig14, RenderFig14)},
	{"regressors.txt", rendered(Config.CompareRegressors, RenderAlgorithmComparison)},
	{"ablations.txt", func(c Config, w io.Writer) (int, error) { return 0, c.RenderAblations(w) }},
	{"gridsearch.txt", rendered(Config.GridSearchRF, RenderGridSearch)},
	{"tuners.txt", rendered(Config.CompareTuners, RenderTuningComparison)},
	{"perkernel.txt", rendered(Config.FutureWorkPerKernel, RenderPerKernel)},
	{"scaling.txt", func(c Config, w io.Writer) (int, error) {
		lr, cr, err := c.StrongScaling([]int{1, 2, 4, 8, 16})
		if err != nil {
			return 0, err
		}
		RenderScaling(w, lr, cr)
		return 0, nil
	}},
	{"resilience.txt", func(c Config, w io.Writer) (int, error) { return 0, c.RenderResilience(w) }},
	// Machine-checkable verification of every headline claim.
	{"schedule.txt", Config.RenderSchedule},
	{"shapechecks.txt", func(c Config, w io.Writer) (int, error) {
		checks, err := c.VerifyShapes()
		if err != nil {
			return 0, err
		}
		return RenderShapeChecks(w, checks), nil
	}},
}

// rendered pairs a generator with the renderer of its result.
func rendered[T any](gen func(Config) (T, error), render func(io.Writer, T)) func(Config, io.Writer) (int, error) {
	return func(c Config, w io.Writer) (int, error) {
		r, err := gen(c)
		if err != nil {
			return 0, err
		}
		render(w, r)
		return 0, nil
	}
}
