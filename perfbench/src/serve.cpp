// serve_mix: a seeded open-loop Poisson stream of GPRS/1 campaign
// requests into an in-process service::Server over one unix-socket
// connection per service worker, driven by one client thread. Each request's
// streamed CSV is byte-compared with write_campaign_csv of the same spec
// run in-process afterwards (untimed).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "ctmc/engine.hpp"
#include "eval/registry.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace campaign = gprsim::campaign;
namespace eval = gprsim::eval;
namespace service = gprsim::service;

namespace {

/// Offered load [requests/s]: about a quarter of the capacity measured
/// for this mix, so requests rarely queue behind one another.
double request_rate(int workers) { return 10.0 * workers; }
/// The latency limit behind the goodput figure of the metadata line.
constexpr double kLatencyLimit = 0.5;
/// A generator more than this late on any send invalidates the run.
constexpr double kMaxLateness = 0.25;
/// Requests still open this long after the schedule ends count as failed.
constexpr double kDrainSeconds = 60.0;

// --- framing -------------------------------------------------------------------

void write_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd p{fd, POLLOUT, 0};
                ::poll(&p, 1, 100);
                continue;
            }
            throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

/// Incremental frame parser over a byte stream.
class FrameReader {
public:
    void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

    /// Pops the next complete frame; false when more bytes are needed.
    bool next(service::Frame& frame) {
        const std::size_t newline = buffer_.find('\n', offset_);
        if (newline == std::string::npos) {
            return false;
        }
        service::Frame parsed;
        gprsim::common::Result<std::size_t> length = service::parse_frame_header(
            buffer_.substr(offset_, newline - offset_), parsed);
        if (!length.ok()) {
            throw std::runtime_error("bad frame header: " + length.error().message);
        }
        if (buffer_.size() - (newline + 1) < length.value()) {
            return false;
        }
        parsed.payload = buffer_.substr(newline + 1, length.value());
        offset_ = newline + 1 + length.value();
        if (offset_ > (1u << 16)) {
            buffer_.erase(0, offset_);
            offset_ = 0;
        }
        frame = std::move(parsed);
        return true;
    }

private:
    std::string buffer_;
    std::size_t offset_ = 0;
};

/// Blocking read of the next frame (set-up handshakes only).
service::Frame read_frame(int fd, FrameReader& reader) {
    service::Frame frame;
    char chunk[4096];
    while (!reader.next(frame)) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
            throw std::runtime_error("connection closed during handshake");
        }
        reader.feed(chunk, static_cast<std::size_t>(n));
    }
    return frame;
}

// --- the service under test ------------------------------------------------------

/// An in-process service and server plus the client connections to it.
/// The destructor closes the clients, stops the server and joins it.
class Deployment {
public:
    Deployment(const service::ServiceOptions& options, const std::string& socket_path,
               int connections)
        : service_(options), server_(service_), socket_path_(socket_path) {
        serving_ = std::thread([this] { server_.serve_unix(socket_path_); });
        try {
            connect_all(connections);
        } catch (...) {
            shut_down();
            throw;
        }
    }

    ~Deployment() { shut_down(); }

    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    /// Process CPU seconds when the first connection's first pong arrived.
    double first_pong_cpu() const { return first_pong_cpu_; }
    service::CampaignService& service() { return service_; }
    const std::vector<int>& fds() const { return fds_; }
    std::vector<FrameReader>& readers() { return readers_; }

private:
    void connect_all(int connections) {
        for (int c = 0; c < connections; ++c) {
            fds_.push_back(connect_with_retry());
            readers_.emplace_back();
            const service::Frame hello = read_frame(fds_.back(), readers_.back());
            if (hello.type != "hello") {
                throw std::runtime_error("expected hello, got " + hello.type);
            }
            write_all(fds_.back(), service::encode_frame({"ping", 0, "setup"}));
            const service::Frame pong = read_frame(fds_.back(), readers_.back());
            if (pong.type != "pong") {
                throw std::runtime_error("expected pong, got " + pong.type);
            }
            if (c == 0) {
                first_pong_cpu_ = process_cpu_seconds();
            }
        }
        for (const int fd : fds_) {
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        }
    }

    void shut_down() {
        for (const int fd : fds_) {
            ::close(fd);
        }
        fds_.clear();
        server_.stop();
        serving_.join();
    }

    int connect_with_retry() {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path_.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("socket path too long: " + socket_path_);
        }
        std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
        const auto start = Clock::now();
        while (true) {
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0) {
                throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
            }
            if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
                return fd;
            }
            ::close(fd);
            if (seconds_since(start) > 10.0) {
                throw std::runtime_error("cannot connect to " + socket_path_);
            }
            // Sleeping costs no CPU time, so it does not count in setup_s.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

    service::CampaignService service_;
    service::Server server_;
    std::string socket_path_;
    std::thread serving_;
    std::vector<int> fds_;
    std::vector<FrameReader> readers_;
    double first_pong_cpu_ = 0.0;
};

// --- the open-loop stream ------------------------------------------------------

struct RequestRecord {
    double sent = -1.0;
    double accepted = -1.0;
    double first_csv = -1.0;
    double done = -1.0;
    std::string error;  ///< error code name; empty unless an error frame came
    std::string csv;
};

struct StreamResult {
    std::vector<RequestRecord> records;
    double late_max = 0.0;
    long long queued_max = 0;
    /// Process CPU seconds from the first send to the last reply.
    double cpu_s = 0.0;
};

/// Sends every request at its due time (request i on connection i mod
/// connections) and collects the result frames, from one thread.
/// `sample_queue` polls the service's queue depth (traced runs only).
StreamResult run_stream(Deployment& deployment, const std::vector<ScheduledRequest>& schedule,
                        double duration, bool sample_queue) {
    StreamResult result;
    result.records.resize(schedule.size());
    const std::vector<int>& fds = deployment.fds();
    std::vector<pollfd> polls;
    for (const int fd : fds) {
        polls.push_back({fd, POLLIN, 0});
    }
    std::size_t next = 0;
    std::size_t open = schedule.size();
    std::vector<char> chunk(1 << 16);
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    while (open > 0) {
        double now = seconds_since(start);
        while (next < schedule.size() && schedule[next].due <= now) {
            const int fd = fds[next % fds.size()];
            write_all(fd, service::encode_frame({"campaign", next + 1, schedule[next].spec}));
            RequestRecord& record = result.records[next];
            record.sent = seconds_since(start);
            result.late_max = std::max(result.late_max, record.sent - schedule[next].due);
            ++next;
            now = seconds_since(start);
        }
        if (now > duration + kDrainSeconds) {
            break;
        }
        if (sample_queue) {
            result.queued_max = std::max(
                result.queued_max, static_cast<long long>(deployment.service().queued()));
        }
        double wait = next < schedule.size() ? schedule[next].due - now : 0.05;
        wait = std::clamp(wait, 0.0, sample_queue ? 0.001 : 0.05);
        timespec timeout{0, static_cast<long>(wait * 1e9)};
        if (::ppoll(polls.data(), polls.size(), &timeout, nullptr) < 0 && errno != EINTR) {
            throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
        }
        for (std::size_t c = 0; c < polls.size(); ++c) {
            if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            const ssize_t n = ::read(fds[c], chunk.data(), chunk.size());
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
                throw std::runtime_error("server closed a connection mid-stream");
            }
            if (n < 0) {
                continue;
            }
            FrameReader& reader = deployment.readers()[c];
            reader.feed(chunk.data(), static_cast<std::size_t>(n));
            const double at = seconds_since(start);
            service::Frame frame;
            while (reader.next(frame)) {
                if (frame.id == 0 || frame.id > schedule.size()) {
                    continue;  // connection-level frames
                }
                RequestRecord& record = result.records[frame.id - 1];
                if (frame.type == "accepted") {
                    record.accepted = at;
                } else if (frame.type == "csv") {
                    if (record.first_csv < 0.0) {
                        record.first_csv = at;
                    }
                    record.csv += frame.payload;
                } else if (frame.type == "done") {
                    record.done = at;
                    --open;
                } else if (frame.type == "error") {
                    record.error = gprsim::common::eval_error_code_name(
                        service::decode_error_payload(frame.payload).code);
                    --open;
                }
            }
        }
    }
    result.cpu_s = process_cpu_seconds() - cpu_start;
    return result;
}

// --- in-process references -------------------------------------------------------

/// Per-layer accounting of the untimed reference pass, which evaluates
/// every distinct spec slice by slice exactly like the service does.
struct LayerTotals {
    long long replications = 0;
    long long sim_events = 0;
    double des_s = 0.0;
    long long fp_iterations = 0;
    double fp_s = 0.0;
    long long chain_sweeps = 0;
    double expand_s = 0.0;
    double assemble_s = 0.0;
    double csv_s = 0.0;
    long long points = 0;
};

/// write_campaign_csv of `spec_text`, evaluated per (backend, variant)
/// slice through Evaluator::evaluate_grid with the layer calls timed.
std::string reference_csv(const std::string& spec_text, LayerTotals& totals,
                          campaign::CampaignResult* result_out) {
    auto t0 = Clock::now();
    const campaign::CampaignWorkload workload =
        campaign::build_campaign_workload(campaign::parse_spec(spec_text));
    totals.expand_s += seconds_since(t0);
    std::vector<std::vector<eval::GridOutcome>> outcomes;
    for (const std::string& method : workload.effective.methods) {
        eval::Evaluator* backend = eval::BackendRegistry::global().find(method).value();
        std::vector<eval::GridOutcome> per_backend;
        for (std::size_t v = 0; v < workload.variants.size(); ++v) {
            eval::GridOptions grid;
            grid.warm_start = workload.effective.solver.warm_start;
            grid.grid_offset = workload.grid_offset(v);
            t0 = Clock::now();
            per_backend.push_back(
                backend->evaluate_grid(workload.queries[v], workload.effective.rates, grid));
            const double elapsed = seconds_since(t0);
            if (method == "des") {
                totals.des_s += elapsed;
            } else if (method == "fixed-point") {
                totals.fp_s += elapsed;
            }
        }
        outcomes.push_back(std::move(per_backend));
    }
    t0 = Clock::now();
    gprsim::common::Result<campaign::CampaignResult> assembled =
        campaign::assemble_campaign(workload, std::move(outcomes));
    if (!assembled.ok()) {
        throw std::runtime_error(assembled.error().message);
    }
    campaign::CampaignResult result = assembled.take();
    totals.assemble_s += seconds_since(t0);
    t0 = Clock::now();
    std::ostringstream csv;
    campaign::write_campaign_csv(result, csv);
    totals.csv_s += seconds_since(t0);

    totals.points += static_cast<long long>(result.points.size());
    for (const campaign::CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& evaluation : point.evaluations) {
            if (evaluation.has_confidence) {
                totals.replications += static_cast<long long>(evaluation.sim.replications.size());
                totals.sim_events += static_cast<long long>(evaluation.sim.events_executed);
            } else if (evaluation.backend == "fixed-point") {
                totals.fp_iterations += evaluation.iterations;
            } else if (evaluation.backend == "ctmc") {
                totals.chain_sweeps += evaluation.iterations;
            }
        }
    }
    if (result_out != nullptr) {
        *result_out = std::move(result);
    }
    return csv.str();
}

service::ServiceOptions service_options(int threads) {
    service::ServiceOptions options;
    // Two workers keep requests concurrent in the service while leaving
    // cores to the load generator and the server's threads.
    options.workers = std::clamp(threads - 1, 1, 2);
    options.num_threads = 1;
    // Deep enough that admission never refuses at the offered load: a
    // `saturated` reply then means the service fell behind.
    options.queue_capacity = 64;
    return options;
}

}  // namespace

void run_serve_workload(const RunOptions& options, Report& report) {
    const service::ServiceOptions service_opts = service_options(options.threads);
    const int connections = service_opts.workers;
    const double rate = request_rate(service_opts.workers);
    const std::string socket_path =
        options.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
    report.note("rate_rps", json_number(rate));
    report.note("workers", std::to_string(service_opts.workers));
    report.note("connections", std::to_string(connections));
    report.note("latency_limit_s", json_number(kLatencyLimit));

    // Set-up: service and server start until the first connection's first
    // pong (the other connections open outside the timed window).
    std::vector<double> setup_samples;
    std::unique_ptr<Deployment> deployment;
    for (int i = 0; i < 101; ++i) {
        deployment.reset();
        const double cpu0 = process_cpu_seconds();
        deployment = std::make_unique<Deployment>(service_opts, socket_path, connections);
        setup_samples.push_back(deployment->first_pong_cpu() - cpu0);
    }

    // Untimed pass before each measured stream: a short burst from
    // another seed, so lazy allocations land outside the timed numbers.
    const auto warm_up = [&](Deployment& target) {
        const std::vector<ScheduledRequest> warm = make_schedule(options.seed ^ 0x5eedu, rate, 0.3);
        const StreamResult warmed = run_stream(target, warm, 0.3, false);
        for (const RequestRecord& record : warmed.records) {
            if (record.done < 0.0) {
                report.problem("untimed warm-up request failed: " + record.error);
            }
        }
    };
    warm_up(*deployment);

    // The measured stream(s). Traced: half the time untraced, half traced
    // on a fresh deployment with the same schedule.
    const double duration = options.trace ? options.seconds / 2.0 : options.seconds;
    const std::vector<ScheduledRequest> schedule = make_schedule(options.seed, rate, duration);
    if (schedule.empty()) {
        throw std::runtime_error("empty schedule; raise --seconds");
    }
    const StreamResult untraced = run_stream(*deployment, schedule, duration, false);
    StreamResult traced;
    service::StatsSnapshot traced_stats;
    if (options.trace) {
        // The old server must be gone before the new one binds the path,
        // or a new client could connect to the old listener.
        deployment.reset();
        deployment = std::make_unique<Deployment>(service_opts, socket_path, connections);
        warm_up(*deployment);
        traced = run_stream(*deployment, schedule, duration, true);
        traced_stats = deployment->service().stats();
    }
    deployment.reset();

    // Untimed references: every distinct spec once in-process; ctmc
    // validation specs also at tolerance 1e-12 for plp_rel_err.
    std::map<std::string, std::string> expected;
    std::vector<const ScheduledRequest*> distinct;
    for (const ScheduledRequest& request : schedule) {
        if (expected.emplace(request.spec, std::string()).second) {
            distinct.push_back(&request);
        }
    }
    std::vector<LayerTotals> passes(options.trace ? 2 : 1);
    double plp_rel_err = 0.0;
    long long reference_failures = 0;
    for (std::size_t pass = 0; pass < passes.size(); ++pass) {
        for (const ScheduledRequest* request : distinct) {
            campaign::CampaignResult result;
            const std::string csv = reference_csv(request->spec, passes[pass], &result);
            if (pass == 1) {
                if (csv != expected[request->spec]) {
                    report.problem("reference CSV differs between repeats");
                }
                continue;
            }
            expected[request->spec] = csv;
            if (request->kind != "validate") {
                continue;
            }
            campaign::ScenarioSpec tight = campaign::parse_spec(request->spec);
            tight.methods = {"ctmc"};
            tight.solver.tolerance = 1e-12;
            const campaign::CampaignResult exact = campaign::run_campaign(tight);
            for (std::size_t i = 0; i < result.points.size(); ++i) {
                const Comparison comparison = compare_measures(
                    result.points[i].evaluations.front().measures,
                    exact.points[i].evaluations.front().measures);
                plp_rel_err = std::max(plp_rel_err, comparison.plp_rel_err);
                if (!comparison.ok) {
                    report.problem("serve_mix reference: " + comparison.worst);
                    ++reference_failures;
                }
            }
        }
    }
    if (options.trace && (passes[0].sim_events != passes[1].sim_events ||
                          passes[0].chain_sweeps != passes[1].chain_sweeps)) {
        report.problem("exact counters differ between reference repeats");
    }
    report.note("distinct_specs", std::to_string(expected.size()));

    // Score a stream: ok = done frame with the expected CSV bytes.
    struct Score {
        std::vector<double> latencies;  ///< due -> done [s], every served request
        long long served = 0;
        long long ok = 0;
        long long within = 0;  ///< ok and within kLatencyLimit
        long long saturated = 0;
        double cpu_per_request = 0.0;
    };
    const auto score = [&](const StreamResult& stream) {
        Score result;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const RequestRecord& record = stream.records[i];
            result.saturated += record.error == "saturated" ? 1 : 0;
            if (record.done < 0.0) {
                continue;
            }
            ++result.served;
            const double latency = record.done - schedule[i].due;
            result.latencies.push_back(latency);
            if (record.csv == expected[schedule[i].spec] && reference_failures == 0) {
                ++result.ok;
                result.within += latency <= kLatencyLimit ? 1 : 0;
            }
        }
        if (result.served > 0) {
            result.cpu_per_request = stream.cpu_s / static_cast<double>(result.served);
        }
        return result;
    };
    const Score plain = score(untraced);
    const auto attempted = static_cast<long long>(schedule.size());
    report.attempted = attempted;
    report.failed = attempted - plain.ok;
    report.note("requests", std::to_string(attempted));
    report.note("late_max_s", json_number(untraced.late_max));
    if (untraced.late_max > kMaxLateness) {
        report.problem("load generator fell behind by " + json_number(untraced.late_max) +
                       " s: run invalid");
    }
    // Wall-clock latencies follow the host's load as much as the program,
    // so they are reported here, outside the gated metrics.
    report.note("request_p50_s", json_number(quantile(plain.latencies, 0.5)));
    report.note("request_p90_s", json_number(quantile(plain.latencies, 0.9)));
    report.note("request_latency.samples", std::to_string(plain.latencies.size()));
    report.note("goodput_rps", json_number(static_cast<double>(plain.within) / duration));

    if (!options.trace) {
        report.percentile("setup_s", setup_samples, 0.5, "s");
        report.metric("campaign_cpu_s", plain.cpu_per_request, "s");
        report.note("campaign_cpu_s.base", "[" + json_number(untraced.cpu_s) + ", " +
                                               std::to_string(plain.served) + "]");
        report.ratio("ok_ratio", {static_cast<double>(plain.ok), static_cast<double>(attempted)});
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("plp_rel_err", plp_rel_err, "ratio");
        return;
    }

    // --- traced: per-layer metrics ---------------------------------------
    const Score traced_score = score(traced);
    report.failed += attempted - traced_score.ok;
    report.attempted += attempted;
    report.ratio("trace_overhead_ratio", {traced_score.cpu_per_request, plain.cpu_per_request});

    std::vector<double> admit;
    std::vector<double> first_csv;
    std::vector<double> stream;
    for (const RequestRecord& record : traced.records) {
        if (record.done < 0.0 || record.accepted < 0.0 || record.first_csv < 0.0) {
            continue;
        }
        admit.push_back(record.accepted - record.sent);
        first_csv.push_back(record.first_csv - record.accepted);
        stream.push_back(record.done - record.first_csv);
    }
    report.percentile("service.admit_s", admit, 0.5, "s");
    report.percentile("service.first_csv_s", first_csv, 0.5, "s");
    report.percentile("service.stream_s", stream, 0.5, "s");
    report.ratio("service.store_hit_ratio",
                 {static_cast<double>(traced_stats.store_hits),
                  static_cast<double>(traced_stats.store_hits + traced_stats.store_misses)});
    report.counter("service.saturated", traced_score.saturated);
    report.counter("service.queued_max", traced.queued_max);
    report.counter("load.sent", attempted);
    report.metric("load.late_max_s", traced.late_max, "s");

    const LayerTotals& layers = passes[0];
    report.counter("sim.replications", layers.replications);
    report.counter("sim.events", layers.sim_events);
    report.metric("sim.events_per_s",
                  layers.des_s > 0.0 ? static_cast<double>(layers.sim_events) / layers.des_s : 0.0,
                  "1/s");
    report.metric("sim.replication_s",
                  layers.replications > 0 ? layers.des_s / layers.replications : 0.0, "s");
    report.counter("queueing.fp_iterations", layers.fp_iterations);
    report.metric("queueing.fp_s", layers.fp_s, "s");
    report.counter("ctmc.sweeps", layers.chain_sweeps);
    report.metric("campaign.expand_s", layers.expand_s, "s");
    report.metric("campaign.assemble_s", layers.assemble_s, "s");
    report.metric("campaign.csv_s", layers.csv_s, "s");
    report.counter("campaign.points", layers.points);
}

}  // namespace perfbench
