#include "stats.hh"

#include "logging.hh"

namespace triarch::stats
{

void
StatGroup::addScalar(const std::string &stat_name, Scalar *s,
                     const std::string &desc)
{
    triarch_assert(s != nullptr, "null scalar for ", stat_name);
    scalars.push_back({stat_name, s, desc});
}

void
StatGroup::addAtomicScalar(const std::string &stat_name, AtomicScalar *s,
                           const std::string &desc)
{
    triarch_assert(s != nullptr, "null atomic scalar for ", stat_name);
    atomics.push_back({stat_name, s, desc});
}

void
StatGroup::addAverage(const std::string &stat_name, Average *a,
                      const std::string &desc)
{
    triarch_assert(a != nullptr, "null average for ", stat_name);
    averages.push_back({stat_name, a, desc});
}

void
StatGroup::addDistribution(const std::string &stat_name, Distribution *d,
                           const std::string &desc)
{
    triarch_assert(d != nullptr, "null distribution for ", stat_name);
    distributions.push_back({stat_name, d, desc});
}

std::uint64_t
StatGroup::scalar(const std::string &stat_name) const
{
    for (const auto &e : scalars) {
        if (e.name == stat_name)
            return e.stat->value();
    }
    for (const auto &e : atomics) {
        if (e.name == stat_name)
            return e.stat->value();
    }
    triarch_panic("unknown scalar stat '", stat_name, "' in group ", _name);
}

double
StatGroup::average(const std::string &stat_name) const
{
    for (const auto &e : averages) {
        if (e.name == stat_name)
            return e.stat->mean();
    }
    triarch_panic("unknown average stat '", stat_name, "' in group ",
                  _name);
}

const Distribution &
StatGroup::distribution(const std::string &stat_name) const
{
    for (const auto &e : distributions) {
        if (e.name == stat_name)
            return *e.stat;
    }
    triarch_panic("unknown distribution stat '", stat_name,
                  "' in group ", _name);
}

bool
StatGroup::hasScalar(const std::string &stat_name) const
{
    for (const auto &e : scalars) {
        if (e.name == stat_name)
            return true;
    }
    for (const auto &e : atomics) {
        if (e.name == stat_name)
            return true;
    }
    return false;
}

void
StatGroup::resetAll()
{
    for (auto &e : scalars)
        e.stat->reset();
    for (auto &e : atomics)
        e.stat->reset();
    for (auto &e : averages)
        e.stat->reset();
    for (auto &e : distributions)
        e.stat->reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &e : scalars) {
        os << _name << "." << e.name << " " << e.stat->value();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    for (const auto &e : atomics) {
        os << _name << "." << e.name << " " << e.stat->value();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    for (const auto &e : averages) {
        os << _name << "." << e.name << " " << e.stat->mean();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    for (const auto &e : distributions) {
        const Distribution &d = *e.stat;
        os << _name << "." << e.name << " mean " << d.mean()
           << " samples " << d.samples();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
        const double width =
            (d.high() - d.low()) / static_cast<double>(d.numBuckets());
        if (d.under()) {
            os << _name << "." << e.name << "[<" << d.low() << "] "
               << d.under() << "\n";
        }
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            if (!d.bucket(i))
                continue;
            const double lo = d.low() + width * static_cast<double>(i);
            os << _name << "." << e.name << "[" << lo << ","
               << lo + width << ") " << d.bucket(i) << "\n";
        }
        if (d.over()) {
            os << _name << "." << e.name << "[>=" << d.high() << "] "
               << d.over() << "\n";
        }
    }
}

std::vector<std::string>
StatGroup::scalarNames() const
{
    std::vector<std::string> names;
    names.reserve(scalars.size() + atomics.size());
    for (const auto &e : scalars)
        names.push_back(e.name);
    for (const auto &e : atomics)
        names.push_back(e.name);
    return names;
}

std::vector<ScalarReading>
StatGroup::scalarReadings() const
{
    std::vector<ScalarReading> out;
    out.reserve(scalars.size() + atomics.size());
    for (const auto &e : scalars)
        out.push_back({e.name, e.desc, e.stat->value()});
    for (const auto &e : atomics)
        out.push_back({e.name, e.desc, e.stat->value()});
    return out;
}

std::vector<AverageReading>
StatGroup::averageReadings() const
{
    std::vector<AverageReading> out;
    out.reserve(averages.size());
    for (const auto &e : averages)
        out.push_back({e.name, e.desc, e.stat->mean(),
                       e.stat->samples()});
    return out;
}

std::vector<DistributionReading>
StatGroup::distributionReadings() const
{
    std::vector<DistributionReading> out;
    out.reserve(distributions.size());
    for (const auto &e : distributions) {
        const Distribution &d = *e.stat;
        DistributionReading r{e.name, e.desc, d.low(), d.high(),
                              d.mean(), d.samples(), d.under(),
                              d.over(), {}};
        r.buckets.reserve(d.numBuckets());
        for (std::size_t i = 0; i < d.numBuckets(); ++i)
            r.buckets.push_back(d.bucket(i));
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace triarch::stats
