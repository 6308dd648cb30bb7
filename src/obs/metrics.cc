#include "obs/metrics.h"

#include "common/state_archive.h"
#include "obs/json.h"
#include "obs/names.h"

namespace mtat::obs {

namespace {

template <typename Map, typename Metric = typename Map::mapped_type::element_type>
Metric& get_or_create(Map& map, const std::string& name) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(name, std::make_unique<Metric>()).first;
  return *it->second;
}

template <typename Map>
const typename Map::mapped_type::element_type* find_in(const Map& map,
                                                       const std::string& name) {
  const auto it = map.find(name);
  return it == map.end() ? nullptr : it->second.get();
}

template <typename Map>
void persist_map(StateArchive& ar, Map& map) {
  std::size_t n = 0;
  for (const auto& entry : map) n += names::is_wall_time_metric(entry.first) ? 0 : 1;
  ar.length(n);
  if (!ar.loading()) {
    for (auto& [name, metric] : map) {
      if (names::is_wall_time_metric(name)) continue;
      std::string key = name;
      ar(key, *metric);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    ar(name);
    ar.check(!names::is_wall_time_metric(name), "wall-time metric in a sim state");
    ar(get_or_create(map, name));
  }
}

}  // namespace

void MetricsRegistry::persist(StateArchive& ar) {
  persist_map(ar, counters_);
  persist_map(ar, gauges_);
  persist_map(ar, histograms_);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return get_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return get_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return get_or_create(histograms_, name);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  return find_in(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  return find_in(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  return find_in(histograms_, name);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_number(os, c->value());
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_number(os, g->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ":{\"count\":" << h->count() << ",\"mean\":";
    json_number(os, h->mean());
    os << ",\"min\":" << h->min() << ",\"p50\":" << h->percentile(50.0)
       << ",\"p90\":" << h->percentile(90.0) << ",\"p99\":" << h->percentile(99.0)
       << ",\"max\":" << h->max() << '}';
  }
  os << "}}";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_)
    os << "counter," << name << ",value," << c->value() << '\n';
  for (const auto& [name, g] : gauges_)
    os << "gauge," << name << ",value," << g->value() << '\n';
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << '\n';
    os << "histogram," << name << ",mean," << h->mean() << '\n';
    os << "histogram," << name << ",min," << h->min() << '\n';
    os << "histogram," << name << ",p50," << h->percentile(50.0) << '\n';
    os << "histogram," << name << ",p90," << h->percentile(90.0) << '\n';
    os << "histogram," << name << ",p99," << h->percentile(99.0) << '\n';
    os << "histogram," << name << ",max," << h->max() << '\n';
  }
}

}  // namespace mtat::obs
