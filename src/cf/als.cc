#include "als.hh"

#include <algorithm>
#include <cmath>
#include <random>

#include "util/logging.hh"

namespace psm::cf
{

void
AlsConfig::validate() const
{
    if (rank == 0)
        fatal("ALS rank must be positive");
    if (lambda < 0.0)
        fatal("ALS lambda must be non-negative");
    if (iterations == 0)
        fatal("ALS needs at least one iteration");
}

void
solveSpd(std::span<double> a, std::span<double> b)
{
    std::size_t k = b.size();
    psm_assert(a.size() == k * k);
    // In-place Cholesky: A = L L^T.
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i * k + j];
            for (std::size_t p = 0; p < j; ++p)
                sum -= a[i * k + p] * a[j * k + p];
            if (i == j) {
                psm_assert(sum > 0.0);
                a[i * k + j] = std::sqrt(sum);
            } else {
                a[i * k + j] = sum / a[j * k + j];
            }
        }
    }
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < k; ++i) {
        double sum = b[i];
        for (std::size_t p = 0; p < i; ++p)
            sum -= a[i * k + p] * b[p];
        b[i] = sum / a[i * k + i];
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = k; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t p = ii + 1; p < k; ++p)
            sum -= a[p * k + ii] * b[p];
        b[ii] = sum / a[ii * k + ii];
    }
}

namespace
{

/**
 * The observed cells of @p data by row (or by column): line i owns
 * entries [start[i], start[i + 1]), whose other coordinate ascends, in
 * the order the sweeps visit them.
 */
struct Csr
{
    bool byRow;
    std::vector<std::size_t> start{0};
    std::vector<std::size_t> other;
    std::vector<double> value;

    Csr(const MaskedMatrix &data, bool by_row) : byRow(by_row)
    {
        std::size_t lines = by_row ? data.rows() : data.cols();
        std::size_t width = by_row ? data.cols() : data.rows();
        for (std::size_t i = 0; i < lines; ++i) {
            for (std::size_t j = 0; j < width; ++j) {
                std::size_t r = by_row ? i : j, c = by_row ? j : i;
                if (data.observed(r, c)) {
                    other.push_back(j);
                    value.push_back(data.at(r, c));
                }
            }
            start.push_back(other.size());
        }
    }
};

/**
 * Run @p sweeps ALS passes serially (one line's work is far too small
 * to split).  With K = rank, flatten and the unroll pragmas keep the
 * accumulators in registers even at -O2; K = 0 takes @p rank at run
 * time.  Either keeps every sum's operand order.
 */
template <std::size_t K>
[[gnu::flatten]] void
sweep(const Csr &rows, const Csr &cols, std::size_t rank, double mu,
      double lambda, std::size_t sweeps, double *row_bias,
      double *col_bias, double *u, double *v)
{
    const std::size_t k = K != 0 ? K : rank;
    std::vector<double> scratch(k * k + k); // normal matrix, then rhs
    double *a = scratch.data();
    double *b = a + k * k;

    // Closed-form ridge estimate of each non-empty line's bias from
    // its residuals x_rc - (mu + b_r + d_c + u_r . v_c).
    auto biasPass = [&](const Csr &obs, double *bias) {
        for (std::size_t i = 0; i + 1 < obs.start.size(); ++i) {
            if (obs.start[i] == obs.start[i + 1])
                continue;
            double sum = 0.0;
            for (std::size_t e = obs.start[i]; e < obs.start[i + 1]; ++e) {
                std::size_t j = obs.other[e];
                std::size_t r = obs.byRow ? i : j, c = obs.byRow ? j : i;
                double dot = 0.0;
#pragma GCC unroll 8
                for (std::size_t p = 0; p < k; ++p)
                    dot += u[r * k + p] * v[c * k + p];
                sum += obs.value[e] - (mu + row_bias[r] + col_bias[c] + dot) +
                       bias[i];
            }
            double n = static_cast<double>(obs.start[i + 1] - obs.start[i]);
            bias[i] = sum / (n + lambda);
        }
    };
    // Ridge regression of each non-empty line's factors against the
    // other side's fixed factors.
    auto factorPass = [&](const Csr &obs, const double *fixed,
                          double *out) {
        for (std::size_t i = 0; i + 1 < obs.start.size(); ++i) {
            if (obs.start[i] == obs.start[i + 1])
                continue;
            std::fill(scratch.begin(), scratch.end(), 0.0);
            for (std::size_t e = obs.start[i]; e < obs.start[i + 1]; ++e) {
                std::size_t j = obs.other[e];
                std::size_t r = obs.byRow ? i : j, c = obs.byRow ? j : i;
                double target =
                    obs.value[e] - mu - row_bias[r] - col_bias[c];
                const double *f = fixed + j * k;
#pragma GCC unroll 8
                for (std::size_t p = 0; p < k; ++p) {
                    b[p] += target * f[p];
#pragma GCC unroll 8
                    for (std::size_t q = 0; q <= p; ++q)
                        a[p * k + q] += f[p] * f[q];
                }
            }
            for (std::size_t p = 0; p < k; ++p) {
                for (std::size_t q = p + 1; q < k; ++q)
                    a[p * k + q] = a[q * k + p];
                a[p * k + p] += lambda;
            }
            solveSpd({a, k * k}, {b, k});
            std::copy(b, b + k, out + i * k);
        }
    };

    for (std::size_t iter = 0; iter < sweeps; ++iter) {
        biasPass(rows, row_bias);
        biasPass(cols, col_bias);
        factorPass(rows, v, u);
        factorPass(cols, u, v);
    }
}

} // namespace

AlsModel::AlsModel(const MaskedMatrix &data, AlsConfig config)
    : cfg(config)
{
    cfg.validate();
    n_rows = data.rows();
    n_cols = data.cols();
    psm_assert(n_rows > 0 && n_cols > 0);
    fit(data);
}

void
AlsModel::fit(const MaskedMatrix &data)
{
    std::size_t k = cfg.rank;
    mu = data.observedMean();
    auto [lo, hi] = data.observedRange();
    clamp_lo = lo;
    clamp_hi = hi;

    row_bias.assign(n_rows, 0.0);
    col_bias.assign(n_cols, 0.0);
    u.assign(n_rows * k, 0.0);
    v.assign(n_cols * k, 0.0);

    std::mt19937 rng(cfg.seed);
    std::normal_distribution<double> init(0.0, 0.1);
    for (double &x : u)
        x = init(rng);
    for (double &x : v)
        x = init(rng);

    if (data.observedCount() == 0)
        return;

    sweeps_run = cfg.iterations;
    auto run = k == AlsConfig::defaultRank ? sweep<AlsConfig::defaultRank>
                                           : sweep<0>;
    run(Csr(data, true), Csr(data, false), k, mu, cfg.lambda, sweeps_run,
        row_bias.data(), col_bias.data(), u.data(), v.data());
}

double
AlsModel::rawPredict(std::size_t r, std::size_t c) const
{
    psm_assert(r < n_rows && c < n_cols);
    double dot = 0.0;
    for (std::size_t p = 0; p < cfg.rank; ++p)
        dot += u[r * cfg.rank + p] * v[c * cfg.rank + p];
    return mu + row_bias[r] + col_bias[c] + dot;
}

double
AlsModel::predict(std::size_t r, std::size_t c) const
{
    return std::clamp(rawPredict(r, c), clamp_lo, clamp_hi);
}

Matrix
AlsModel::complete(const MaskedMatrix &data) const
{
    psm_assert(data.rows() == n_rows && data.cols() == n_cols);
    Matrix out(n_rows, n_cols);
    for (std::size_t r = 0; r < n_rows; ++r)
        for (std::size_t c = 0; c < n_cols; ++c)
            out.at(r, c) = data.observed(r, c) ? data.at(r, c)
                                               : predict(r, c);
    return out;
}

double
AlsModel::trainRmse(const MaskedMatrix &data) const
{
    if (data.observedCount() == 0)
        return 0.0;
    double sum = 0.0;
    for (std::size_t r = 0; r < n_rows; ++r) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            if (data.observed(r, c)) {
                double d = data.at(r, c) - predict(r, c);
                sum += d * d;
            }
        }
    }
    return std::sqrt(sum / static_cast<double>(data.observedCount()));
}

} // namespace psm::cf
