#include "engine/router.h"

#include <utility>

namespace xsact::engine {

uint64_t RouterStats::total_shed() const {
  uint64_t total = 0;
  for (const DatasetStats& d : datasets) total += d.admission.shed;
  return total;
}

uint64_t RouterStats::total_deadline_exceeded() const {
  uint64_t total = 0;
  for (const DatasetStats& d : datasets) {
    total += d.admission.deadline_exceeded;
  }
  return total;
}

uint64_t RouterStats::total_queue_depth() const {
  uint64_t total = 0;
  for (const DatasetStats& d : datasets) total += d.admission.queue_depth;
  return total;
}

uint64_t RouterStats::total_unhealthy() const {
  uint64_t total = 0;
  for (const DatasetStats& d : datasets) {
    if (!d.health.healthy) ++total;
  }
  return total;
}

StatusOr<ServiceRouter> ServiceRouter::Create(
    std::vector<DatasetSpec> datasets, const QueryServiceOptions& options) {
  if (datasets.empty()) {
    return Status::InvalidArgument("router needs at least one dataset");
  }
  ServiceMap services;
  for (DatasetSpec& spec : datasets) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("dataset name must be non-empty");
    }
    if (spec.snapshot == nullptr) {
      return Status::InvalidArgument("dataset '" + spec.name +
                                     "' has no snapshot");
    }
    if (services.find(spec.name) != services.end()) {
      return Status::AlreadyExists("duplicate dataset name '" + spec.name +
                                   "'");
    }
    services.emplace(std::move(spec.name),
                     std::make_unique<QueryService>(std::move(spec.snapshot),
                                                    options));
  }
  return ServiceRouter(std::move(services));
}

void ServiceRouter::Submit(std::string_view dataset, std::string query,
                           const CompareOptions& options, size_t max_results,
                           Deadline deadline, const CancelSource* cancel,
                           Completion done) {
  QueryService* target = service(dataset);
  if (target == nullptr) {
    Resolve(done, Status::NotFound("unknown dataset '" +
                                   std::string(dataset) + "'"));
    return;
  }
  target->Submit(std::move(query), options, max_results, deadline, cancel,
                 std::move(done));
}

std::future<StatusOr<OutcomePtr>> ServiceRouter::Submit(
    std::string_view dataset, std::string query,
    const CompareOptions& options, size_t max_results, Deadline deadline,
    const CancelSource* cancel) {
  std::promise<StatusOr<OutcomePtr>> promise;
  std::future<StatusOr<OutcomePtr>> future = promise.get_future();
  Submit(dataset, std::move(query), options, max_results, deadline, cancel,
         PromiseCompletion(std::move(promise)));
  return future;
}

std::future<Status> ServiceRouter::ReloadCorpus(std::string_view dataset,
                                                std::string path) {
  QueryService* target = service(dataset);
  if (target == nullptr) {
    std::promise<Status> promise;
    promise.set_value(
        Status::NotFound("unknown dataset '" + std::string(dataset) + "'"));
    return promise.get_future();
  }
  return target->ReloadCorpus(std::move(path));
}

QueryService* ServiceRouter::service(std::string_view dataset) {
  const auto it = services_.find(dataset);
  return it == services_.end() ? nullptr : it->second.get();
}

const QueryService* ServiceRouter::service(std::string_view dataset) const {
  const auto it = services_.find(dataset);
  return it == services_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ServiceRouter::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(services_.size());
  for (const auto& [name, service] : services_) names.push_back(name);
  return names;  // map iteration order == sorted
}

RouterStats ServiceRouter::stats() const {
  RouterStats stats;
  stats.datasets.reserve(services_.size());
  for (const auto& [name, service] : services_) {
    DatasetStats d;
    d.dataset = name;
    d.epoch = service->snapshot_epoch();
    d.cache = service->cache_stats();
    d.admission = service->admission_stats();
    d.health = service->health();
    d.memory = service->snapshot()->memory_stats();
    stats.datasets.push_back(std::move(d));
  }
  return stats;
}

}  // namespace xsact::engine
