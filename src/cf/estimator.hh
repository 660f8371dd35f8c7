/**
 * @file
 * The utility estimator: given sparse online measurements of a new
 * application plus a corpus of previously profiled applications,
 * predict the application's full power and performance surfaces over
 * the knob space (Section III-A, "App Utilities" in Fig. 6).
 *
 * Power is factored in linear space (it is approximately additive in
 * the knobs); heartbeat rates are factored in log space because their
 * structure is multiplicative and their absolute scales differ by
 * orders of magnitude across applications.
 *
 * Each estimate() is one cold fit: nothing is memoized between calls,
 * so a recalibration after a phase change reflects the new phase's
 * samples only.
 */

#ifndef PSM_CF_ESTIMATOR_HH
#define PSM_CF_ESTIMATOR_HH

#include <string>
#include <vector>

#include "als.hh"
#include "matrix.hh"
#include "profiler.hh"
#include "power/platform.hh"

namespace psm::cf
{

/** A complete predicted utility surface for one application. */
struct UtilitySurface
{
    std::vector<double> power;  ///< watts per knob-space column
    std::vector<double> hbRate; ///< heartbeats/s per column
    std::size_t sampledColumns = 0; ///< how many were measured
};

/** What one estimate() call cost, for telemetry upstream. */
struct FitOutcome
{
    std::size_t sweeps = 0;  ///< total ALS sweeps across both models
    double fitSeconds = 0.0; ///< wall-clock spent fitting
};

/**
 * Corpus + estimation logic.
 */
class UtilityEstimator
{
  public:
    explicit UtilityEstimator(const power::PlatformConfig &config,
                              AlsConfig als = {});

    /** Number of knob-space columns. */
    std::size_t columnCount() const { return n_cols; }

    /** The knob setting of column @p c. */
    const power::KnobSetting &setting(std::size_t c) const;

    /** Column index of a (clamped, quantized) knob setting. */
    std::size_t columnOf(const power::KnobSetting &s) const;

    // --- Corpus ------------------------------------------------------

    /**
     * Add a fully profiled application to the corpus.
     */
    void addCorpusApp(const std::string &name,
                      const std::vector<double> &power_row,
                      const std::vector<double> &hb_row);

    bool hasCorpusApp(const std::string &name) const;
    std::size_t corpusSize() const { return names.size(); }

    /** Drop every corpus application (used by cross-validation). */
    void clearCorpus();

    // --- Estimation ---------------------------------------------------

    /**
     * Estimate the full surface of a new application from sparse
     * measurements.  Measured columns keep their measured values.
     *
     * The power and heartbeat factorizations are independent and fit
     * concurrently on the global thread pool.
     *
     * @param outcome Optional report of the fit's cost (sweeps, fit
     *        wall-clock).
     */
    UtilitySurface estimate(const std::vector<Measurement> &samples,
                            FitOutcome *outcome = nullptr) const;

    /**
     * Convenience for a fully known application: wrap exhaustive
     * rows as a surface.
     */
    static UtilitySurface
    surfaceFromRows(const std::vector<double> &power_row,
                    const std::vector<double> &hb_row);

  private:
    const power::PlatformConfig &config;
    AlsConfig als_config;
    std::vector<power::KnobSetting> columns;
    std::size_t n_cols;

    std::vector<std::string> names;
    MaskedMatrix power_corpus;  ///< linear watts
    MaskedMatrix log_hb_corpus; ///< log heartbeat rates
};

} // namespace psm::cf

#endif // PSM_CF_ESTIMATOR_HH
