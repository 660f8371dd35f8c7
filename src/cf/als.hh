/**
 * @file
 * Low-rank matrix completion by alternating least squares (ALS) —
 * the collaborative filtering engine the paper implements in R.
 *
 * The model is the classic biased factorization used in recommender
 * systems:
 *
 *     x_rc ~ mu + b_r + d_c + u_r . v_c
 *
 * with global mean mu, per-application bias b, per-knob-setting bias
 * d, and rank-k latent factors u, v.  Training minimizes squared
 * error over the *observed* cells plus L2 regularization; prediction
 * fills every cell.  This works here for the same reason it works for
 * movie ratings: applications' responses to knob settings are highly
 * correlated (a few latent "resource sensitivity" dimensions explain
 * most of the variance), so a new application's full utility surface
 * can be recovered from a sparse sample plus the corpus of previously
 * profiled applications.
 *
 * Every fit starts from the same seeded random factors and runs a
 * fixed number of sweeps, so equal inputs give bit-equal models.
 */

#ifndef PSM_CF_ALS_HH
#define PSM_CF_ALS_HH

#include <cstddef>
#include <span>
#include <vector>

#include "matrix.hh"

namespace psm::cf
{

/** Hyper-parameters for the ALS solver. */
struct AlsConfig
{
    static constexpr std::size_t defaultRank = 3; ///< compiled-in fast path
    std::size_t rank = defaultRank; ///< latent dimensionality k
    double lambda = 0.10;      ///< L2 regularization strength
    std::size_t iterations = 25; ///< alternating sweeps
    unsigned seed = 1234;      ///< factor initialization seed

    /** Validate ranges; calls fatal() on nonsense. */
    void validate() const;
};

/**
 * Solve a symmetric positive definite k x k system A x = b in place
 * via Cholesky decomposition, k = b.size().  A (row-major) is
 * overwritten by its Cholesky factor and b by the solution x.
 * Exposed for testing.
 */
void solveSpd(std::span<double> a, std::span<double> b);

/**
 * Trained factorization model; predicts any cell.
 */
class AlsModel
{
  public:
    /**
     * Fit the model to the observed cells of @p data: a seeded random
     * initialization, then config.iterations sweeps.  The fit is
     * serial and allocates nothing inside a sweep.
     */
    explicit AlsModel(const MaskedMatrix &data, AlsConfig config = {});

    /** Sweeps run by the fit (0 when nothing was observed). */
    std::size_t sweepsRun() const { return sweeps_run; }

    /** Predicted value of cell (r, c), clamped to the observed range. */
    double predict(std::size_t r, std::size_t c) const;

    /**
     * Complete matrix: observed cells keep their measured values,
     * unobserved cells are predictions.
     */
    Matrix complete(const MaskedMatrix &data) const;

    /** RMSE over the observed (training) cells. */
    double trainRmse(const MaskedMatrix &data) const;

  private:
    AlsConfig cfg;
    std::size_t n_rows = 0;
    std::size_t n_cols = 0;
    double mu = 0.0;
    double clamp_lo = 0.0;
    double clamp_hi = 0.0;
    std::vector<double> row_bias;
    std::vector<double> col_bias;
    std::vector<double> u; ///< n_rows x rank, row-major
    std::vector<double> v; ///< n_cols x rank, row-major
    std::size_t sweeps_run = 0;

    double rawPredict(std::size_t r, std::size_t c) const;
    void fit(const MaskedMatrix &data);
};

} // namespace psm::cf

#endif // PSM_CF_ALS_HH
