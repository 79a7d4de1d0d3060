"""waasim: multi-tenant workflow scheduling engine and IaaS cloud simulator."""

from .cloud import (CloudConfig, Fleet, VariabilityConfig, VmInstance, VmType,
                    default_catalog, finalize_billing, task_runtime_on)
from .engine import SimulationResult, run
from .errors import (ConfigError, CycleError, DanglingRefError, IllegalState,
                     ManifestMismatch, SchemaError, StallError, WaasimError)
from .estimator import EstimatorConfig, RuntimeEstimator
from .experiment import (ComparisonReport, ExperimentConfig, TemplateConfig,
                         compare, compare_files, config_from_dict, default_templates,
                         load_config, run_experiment, summarize_budget_met)
from .metrics import FleetMetrics, MetricsReport, WorkflowMetrics, checkpoint_trace
from .scheduler import (BudgetLedger, EbpsmPolicy, FcfsPolicy, distribute_budget,
                        make_policy, update_budget)
from .workflow import (TaskRecord, WorkflowSpec, WorkloadSpec, generate_workload,
                       genome_template, parse_workflow, parse_workload,
                       serialize_workload, vina_template, workload_hash)

__version__ = "0.1.0"
