package simulation

import (
	"math/rand"

	"repro/internal/ilog"
	"repro/internal/ui"
)

// Policy is the per-iteration user-behaviour model: given a displayed
// result list, it decides — under a stereotype's probabilities and an
// interface's affordance costs — what the user does, emitting the
// interaction events. It knows nothing about where the results came
// from; RunLoop drives it over any Transport.
//
// A Policy owns no state beyond its PRNG; budget and the cross-
// iteration seen-set live with the session loop, mirroring how a
// session outlives its iterations. Not safe for concurrent use (shared PRNG);
// create one per virtual user.
type Policy struct {
	// Stereotype is the behaviour model (click/dwell/rating
	// probabilities, patience).
	Stereotype Stereotype
	// Iface is the interaction-environment capability/cost model.
	Iface *ui.Interface
	// Rand is the behaviour randomness stream.
	Rand *rand.Rand
}

// ResultView is what the policy needs to know about one displayed
// result: identity, ground-truth relevance (or a sampled belief, for
// pure load runs without qrels), and the shot's duration for play
// events.
type ResultView struct {
	ShotID   string
	Relevant bool
	Seconds  float64
}

// Reformulate decides the query text for iteration it: a persistent
// user (ReformulateProb > 0) who is still on the short form after an
// unsatisfying first pass may switch to the verbose description. The
// probability draw is guarded so non-reformulating stereotypes
// consume no randomness.
func (p *Policy) Reformulate(it int, current, short, verbose string) string {
	if p.Stereotype.ReformulateProb > 0 && it > 0 && current == short &&
		verbose != "" && p.Rand.Float64() < p.Stereotype.ReformulateProb {
		return verbose
	}
	return current
}

// Examine walks the user down a result list, emitting interaction
// events under the stereotype until patience or the effort budget is
// exhausted. seen accumulates distinct examined shots across
// iterations; budget is decremented by each action's interface cost.
func (p *Policy) Examine(results []ResultView, step int, seen map[string]bool,
	budget *float64, emit func(ilog.Event)) {

	st, iface, r := p.Stereotype, p.Iface, p.Rand
	browseCost := iface.ActionCost(ilog.ActionBrowse)
	for rank, res := range results {
		if rank >= st.Patience {
			break
		}
		// Paging: every PageSize results costs one browse action.
		if rank > 0 && rank%iface.PageSize == 0 {
			if *budget < browseCost {
				break
			}
			*budget -= browseCost
		}
		id := res.ShotID
		seen[id] = true
		truth := res.Relevant
		// The examined item leaves a (weak) browse trace.
		emit(ilog.Event{Action: ilog.ActionBrowse, ShotID: id, Step: step, Rank: rank})
		// Perception of relevance from keyframe + title.
		perceived := truth
		if r.Float64() > st.Accuracy {
			perceived = !perceived
		}
		clickP := st.ClickNonRel
		if perceived {
			clickP = st.ClickRel
		}
		if r.Float64() >= clickP {
			continue
		}
		// Highlight metadata before committing to playback.
		if iface.Supports(ilog.ActionHighlight) && r.Float64() < st.HighlightProb {
			cost := iface.ActionCost(ilog.ActionHighlight)
			if *budget >= cost {
				*budget -= cost
				emit(ilog.Event{Action: ilog.ActionHighlight, ShotID: id, Step: step, Rank: rank})
			}
		}
		// Click to start playback.
		clickCost := iface.ActionCost(ilog.ActionClickKeyframe)
		if *budget < clickCost {
			break
		}
		*budget -= clickCost
		emit(ilog.Event{Action: ilog.ActionClickKeyframe, ShotID: id, Step: step, Rank: rank})
		// Play: dwell governed by true relevance (the user finds out).
		playCost := iface.ActionCost(ilog.ActionPlay)
		if *budget < playCost {
			break
		}
		*budget -= playCost
		frac := st.PlayFracNonRel
		if truth {
			frac = st.PlayFracRel
		}
		// Jitter ±25% of the mean fraction, clamped to [0.02, 1].
		frac *= 0.75 + r.Float64()*0.5
		if frac > 1 {
			frac = 1
		}
		if frac < 0.02 {
			frac = 0.02
		}
		emit(ilog.Event{
			Action: ilog.ActionPlay, ShotID: id, Step: step, Rank: rank,
			Seconds: frac * res.Seconds,
		})
		// Slide/scrub within the playing video.
		if iface.Supports(ilog.ActionSlide) && r.Float64() < st.SlideProb {
			cost := iface.ActionCost(ilog.ActionSlide)
			if *budget >= cost {
				*budget -= cost
				emit(ilog.Event{
					Action: ilog.ActionSlide, ShotID: id, Step: step, Rank: rank,
					Seconds: res.Seconds * 0.3,
				})
			}
		}
		// Explicit rating after viewing; propensity scales with how
		// prominent the rating affordance is in this environment.
		rateP := st.RateProb * iface.RateAffinity
		if rateP > 1 {
			rateP = 1
		}
		if iface.Supports(ilog.ActionRate) && r.Float64() < rateP {
			cost := iface.ActionCost(ilog.ActionRate)
			if *budget >= cost {
				*budget -= cost
				verdict := truth
				if r.Float64() > st.RateAccuracy {
					verdict = !verdict
				}
				value := -1
				if verdict {
					value = 1
				}
				emit(ilog.Event{
					Action: ilog.ActionRate, ShotID: id, Step: step, Rank: rank, Value: value,
				})
			}
		}
	}
}
