#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace uscope
{

void
Summary::add(double sample)
{
    ++count_;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
}

void
Summary::merge(const Summary &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    count_ += other.count_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
Summary::min() const
{
    return count_ ? min_ : 0.0;
}

double
Summary::max() const
{
    return count_ ? max_ : 0.0;
}

Summary
Summary::fromParts(std::uint64_t count, double mean, double m2,
                   double min, double max)
{
    Summary s;
    s.count_ = count;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
}

double
Summary::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, unsigned nbuckets)
    : lo_(lo), hi_(hi),
      bucketWidth_((hi - lo) / nbuckets),
      buckets_(nbuckets, 0)
{
    if (!(hi > lo) || nbuckets == 0)
        fatal("Histogram: invalid range [%g, %g) / %u buckets",
              lo, hi, nbuckets);
}

void
Histogram::add(double sample)
{
    summary_.add(sample);
    if (sample < lo_) {
        ++underflow_;
    } else if (sample >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((sample - lo_) / bucketWidth_);
        idx = std::min(idx, buckets_.size() - 1);
        ++buckets_[idx];
    }
}

double
Histogram::bucketLo(unsigned idx) const
{
    return lo_ + idx * bucketWidth_;
}

std::string
Histogram::render(unsigned width) const
{
    std::uint64_t peak = 1;
    for (auto b : buckets_)
        peak = std::max(peak, b);

    std::string out;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        const auto bar_len = static_cast<unsigned>(
            (buckets_[i] * width) / peak);
        out += format("%10.1f..%-10.1f %8llu |", bucketLo(i),
                      bucketLo(i) + bucketWidth_,
                      static_cast<unsigned long long>(buckets_[i]));
        out.append(bar_len, '#');
        out += '\n';
    }
    if (underflow_)
        out += format("  underflow: %llu\n",
                      static_cast<unsigned long long>(underflow_));
    if (overflow_)
        out += format("  overflow:  %llu\n",
                      static_cast<unsigned long long>(overflow_));
    return out;
}

} // namespace uscope
