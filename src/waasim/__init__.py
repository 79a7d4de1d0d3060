"""waasim: multi-tenant workflow scheduling engine and IaaS cloud simulator."""

from .cloud import (CloudConfig, Fleet, VariabilityConfig, VmInstance, VmType,
                    default_catalog, estimated_task_cost, finalize_billing,
                    task_runtime_on)
from .engine import SimulationResult, TraceEvent, checkpoint_trace, run
from .errors import (ConfigError, CycleError, DanglingRefError, IllegalState,
                     ManifestMismatch, SchemaError, StallError, WaasimError)
from .estimator import EstimatorConfig, ExecutionRecord, RuntimeEstimator
from .experiment import (ComparisonReport, ExperimentConfig, TemplateConfig,
                         compare, compare_files, config_from_dict, default_templates,
                         load_config, run_experiment, summarize_budget_met)
from .metrics import FleetMetrics, MetricsReport, WorkflowMetrics
from .scheduler import (BudgetLedger, EbpsmPolicy, FcfsPolicy, distribute_budget,
                        make_policy, update_budget)
from .workflow import (TaskRecord, WorkflowSpec, WorkloadSpec, compute_levels,
                       generate_workload, genome_template, parse_workflow,
                       parse_workload, serialize_workflow, serialize_workload,
                       validate_workflow, vina_template, workload_hash)

__version__ = "0.1.0"
