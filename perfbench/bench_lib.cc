#include "bench_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"

namespace perfbench {
namespace {

std::vector<std::string_view> SplitSpaces(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos <= line.size()) {
    const size_t next = std::min(line.find(' ', pos), line.size());
    tokens.push_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
  return tokens;
}

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  if (text.empty()) return false;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

/// Reads token `tokens[*i]` as "<key>=<value>" and advances `*i`.
bool TakeField(const std::vector<std::string_view>& tokens, size_t* i,
               std::string_view key, std::string_view* value,
               std::string* error) {
  if (*i >= tokens.size()) {
    *error = "missing field " + std::string(key);
    return false;
  }
  const std::string_view token = tokens[*i];
  if (token.size() <= key.size() || token.substr(0, key.size()) != key ||
      token[key.size()] != '=') {
    *error = "expected " + std::string(key) + "=, got \"" +
             std::string(token) + "\"";
    return false;
  }
  *value = token.substr(key.size() + 1);
  ++*i;
  return true;
}

template <typename T>
bool TakeNumber(const std::vector<std::string_view>& tokens, size_t* i,
                std::string_view key, T* out, std::string* error) {
  std::string_view value;
  if (!TakeField(tokens, i, key, &value, error)) return false;
  if (!ParseNumber(value, out)) {
    *error = "malformed " + std::string(key) + "=" + std::string(value);
    return false;
  }
  return true;
}

/// Splits off the leading "ok" token; an "err" line is an error carrying
/// the line itself.
bool TakeOk(std::string_view line, std::vector<std::string_view>* tokens,
            std::string* error) {
  if (line.empty()) {
    *error = "empty response";
    return false;
  }
  *tokens = SplitSpaces(line);
  if ((*tokens)[0] != "ok") {
    *error = "not ok: " + std::string(line.substr(0, 200));
    return false;
  }
  return true;
}

}  // namespace

bool ParseTopkResponse(std::string_view line, TopkResponse* out,
                       std::string* error) {
  std::vector<std::string_view> tokens;
  if (!TakeOk(line, &tokens, error)) return false;
  size_t i = 1;
  std::string_view graph, backend, cache;
  size_t k = 0;
  if (!TakeField(tokens, &i, "graph", &graph, error) ||
      !TakeNumber(tokens, &i, "version", &out->version, error) ||
      !TakeNumber(tokens, &i, "seed", &out->seed, error) ||
      !TakeField(tokens, &i, "backend", &backend, error) ||
      !TakeNumber(tokens, &i, "k", &k, error) ||
      !TakeField(tokens, &i, "cache", &cache, error)) {
    return false;
  }
  if (cache != "hit" && cache != "miss") {
    *error = "malformed cache=" + std::string(cache);
    return false;
  }
  if (tokens.size() - i != k) {
    *error = "k=" + std::to_string(k) + " but " +
             std::to_string(tokens.size() - i) + " node:score pairs";
    return false;
  }
  out->graph = std::string(graph);
  out->backend = std::string(backend);
  out->cache_hit = cache == "hit";
  out->nodes.clear();
  out->scores.clear();
  for (; i < tokens.size(); ++i) {
    const std::string_view pair = tokens[i];
    const size_t colon = pair.find(':');
    uint32_t node = 0;
    double score = 0.0;
    if (colon == std::string_view::npos ||
        !ParseNumber(pair.substr(0, colon), &node) ||
        !ParseNumber(pair.substr(colon + 1), &score) ||
        !std::isfinite(score)) {
      *error = "malformed node:score \"" + std::string(pair) + "\"";
      return false;
    }
    out->nodes.push_back(node);
    out->scores.push_back(score);
  }
  return true;
}

bool ParseLoadResponse(std::string_view line, LoadResponse* out,
                       std::string* error) {
  std::vector<std::string_view> tokens;
  if (!TakeOk(line, &tokens, error)) return false;
  size_t i = 1;
  std::string_view graph;
  if (!TakeField(tokens, &i, "graph", &graph, error) ||
      !TakeNumber(tokens, &i, "version", &out->version, error) ||
      !TakeNumber(tokens, &i, "nodes", &out->nodes, error) ||
      !TakeNumber(tokens, &i, "edges", &out->edges, error)) {
    return false;
  }
  if (i != tokens.size()) {
    *error = "trailing \"" + std::string(tokens[i]) + "\"";
    return false;
  }
  out->graph = std::string(graph);
  return true;
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile result;
  result.count = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  result.value = samples[lo] + frac * (samples[hi] - samples[lo]);
  return result;
}

bool ScoreWithinBound(double estimate, double exact, double eps_r,
                      double delta) {
  const double error = std::fabs(estimate - exact);
  return exact > delta ? error <= eps_r * exact : error <= eps_r * delta;
}

namespace {

hkpr::Graph GeneratePreset(GraphPreset preset, uint64_t seed) {
  switch (preset) {
    case GraphPreset::kRmatMedium:
      return hkpr::RestrictToLargestComponent(hkpr::Rmat(17, 18.0, seed));
    case GraphPreset::kPowerlaw20k:
      return hkpr::PowerlawCluster(20000, 4, 0.3, seed);
  }
  return hkpr::Graph();
}

const char* PresetName(GraphPreset preset) {
  switch (preset) {
    case GraphPreset::kRmatMedium:
      return "rmat-medium";
    case GraphPreset::kPowerlaw20k:
      return "powerlaw-20k";
  }
  return "unknown";
}

/// Writes with `save` to "<path>.tmp" and renames it over `path`.
template <typename SaveFn>
bool SaveAtomically(const std::string& path, SaveFn save, std::string* error) {
  const std::string tmp = path + ".tmp";
  const hkpr::Status status = save(tmp);
  if (!status.ok()) {
    *error = "cannot write " + tmp + ": " + status.ToString();
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    *error = "cannot rename " + tmp + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace

bool EnsureInputs(GraphPreset preset, uint64_t seed, const std::string& dir,
                  InputFiles* files, std::string* error) {
  const std::string stem =
      dir + "/" + PresetName(preset) + "-s" + std::to_string(seed);
  files->edges = stem + ".edges";
  files->snapshot = stem + ".v2.bin";
  if (std::filesystem::exists(files->edges) &&
      std::filesystem::exists(files->snapshot)) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  const hkpr::Graph graph = GeneratePreset(preset, seed);
  return SaveAtomically(
             files->edges,
             [&](const std::string& p) { return SaveEdgeList(graph, p); },
             error) &&
         SaveAtomically(
             files->snapshot,
             [&](const std::string& p) { return SaveBinary(graph, p); },
             error);
}

}  // namespace perfbench
