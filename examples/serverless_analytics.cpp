// A tour of the serverless substrate (paper section 4.5): container
// lifecycle (cold / frozen-resume / warm), the power-law package cache,
// data-locality scheduling, vertical memory elasticity, and the
// synchronous vs. asynchronous interaction modes of Table 1.

#include <cstdio>

#include "common/clock.h"
#include "common/strings.h"
#include "runtime/container_manager.h"
#include "runtime/executor.h"
#include "runtime/package.h"
#include "runtime/package_cache.h"
#include "runtime/scheduler.h"
#include "runtime/spark_model.h"

using bauplan::FormatDurationMicros;
using bauplan::Rng;
using bauplan::SimClock;
using namespace bauplan::runtime;  // example code; library code never does this

int main() {
  SimClock clock;
  PackageCache cache(&clock, PackageCache::Options{});
  ContainerManager containers(&clock, &cache);
  Scheduler scheduler(&clock, Scheduler::Options{});
  ServerlessExecutor executor(&clock, &containers, &scheduler);

  // --- container lifecycle ------------------------------------------
  ContainerSpec pandas_env;
  pandas_env.packages = {{"pandas==2.0.0", 45ull << 20},
                         {"numpy==1.26", 28ull << 20}};

  auto cold = containers.Acquire(pandas_env);
  (void)containers.Release(cold->container_id);  // freeze it
  auto resume = containers.Acquire(pandas_env);
  (void)containers.Release(resume->container_id, /*freeze=*/false);
  auto warm = containers.Acquire(pandas_env);
  (void)containers.Release(warm->container_id);

  std::printf("-- container starts for the same environment --\n");
  std::printf("cold start:     %s (image + packages + interpreter)\n",
              FormatDurationMicros(cold->startup_micros).c_str());
  std::printf("frozen resume:  %s (the paper's 300 ms)\n",
              FormatDurationMicros(resume->startup_micros).c_str());
  std::printf("warm dispatch:  %s\n\n",
              FormatDurationMicros(warm->startup_micros).c_str());

  // Versus the Spark baseline the paper departs from.
  SparkSessionModel spark(&clock);
  uint64_t spark_first = spark.SubmitJob();
  uint64_t spark_next = spark.SubmitJob();
  std::printf("Spark cluster first job: %s; next job: %s\n\n",
              FormatDurationMicros(spark_first).c_str(),
              FormatDurationMicros(spark_next).c_str());

  // --- package cache under a power-law workload ---------------------
  PackageRegistry registry(5000, 1.1, 42);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    (void)cache.Fetch(registry.SampleByPopularity(rng));
  }
  const auto& pm = cache.metrics();
  std::printf("-- package cache after 2000 Zipf fetches --\n");
  std::printf("hit rate %.1f%%, downloaded %s, cache holds %s\n\n",
              100.0 * pm.HitRate(),
              bauplan::FormatBytes(pm.bytes_downloaded).c_str(),
              bauplan::FormatBytes(cache.used_bytes()).c_str());

  // --- locality-aware scheduling ------------------------------------
  FunctionRequest producer;
  producer.name = "build_trips";
  producer.spec = pandas_env;
  producer.memory_bytes = 10ull << 30;  // vertical elasticity: 10 GB
  producer.output_artifact = "trips";
  producer.body = [&] {
    clock.AdvanceMicros(500000);  // pretend to compute for 500 ms
    return bauplan::Status::OK();
  };
  auto p = executor.Invoke(producer);

  FunctionRequest consumer;
  consumer.name = "audit_trips";
  consumer.spec = pandas_env;
  consumer.memory_bytes = 20ull << 30;  // bigger artifact, bigger slot
  consumer.inputs = {{"trips", 2ull << 30}};
  consumer.body = [&] {
    clock.AdvanceMicros(200000);
    return bauplan::Status::OK();
  };
  auto c = executor.Invoke(consumer);

  std::printf("-- locality --\n");
  std::printf("producer on worker %d; consumer on worker %d "
              "(locality hit: %s, transfer %s)\n\n",
              p->worker, c->worker, c->locality_hit ? "yes" : "no",
              FormatDurationMicros(c->transfer_micros).c_str());

  // --- sync vs async (Table 1) ---------------------------------------
  // Synchronous: the developer waits for the answer (QW / dev TD).
  FunctionRequest sync_query;
  sync_query.name = "interactive_query";
  sync_query.memory_bytes = 1ull << 30;
  sync_query.body = [&] {
    clock.AdvanceMicros(150000);
    return bauplan::Status::OK();
  };
  auto sync_report = executor.Invoke(sync_query);
  std::printf("-- interaction modes --\n");
  std::printf("sync query end-to-end: %s\n",
              FormatDurationMicros(sync_report->total_micros).c_str());

  // Asynchronous: an orchestrator submits and checks back later
  // (prod TD).
  for (int i = 0; i < 3; ++i) {
    FunctionRequest job;
    job.name = bauplan::StrCat("nightly_job_", i);
    job.memory_bytes = 1ull << 30;
    job.body = [&] {
      clock.AdvanceMicros(400000);
      return bauplan::Status::OK();
    };
    executor.Submit(std::move(job));
  }
  clock.AdvanceMicros(3600ull * 1000000);  // the orchestrator comes back
  auto reports = executor.Drain();
  for (const auto& report : *reports) {
    std::printf("async %s: queued %s, ran %s\n", report.name.c_str(),
                FormatDurationMicros(report.queue_micros).c_str(),
                FormatDurationMicros(report.total_micros -
                                     report.queue_micros)
                    .c_str());
  }

  const auto& cm = containers.metrics();
  std::printf("\ncontainer metrics: %lld cold, %lld resumes, %lld warm\n",
              static_cast<long long>(cm.cold_starts),
              static_cast<long long>(cm.frozen_resumes),
              static_cast<long long>(cm.warm_reuses));
  return 0;
}
